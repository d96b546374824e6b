"""Independent re-checking of a finished space-time mesh and its trace.

The checks deliberately avoid the generator's constraint tables.  Every
cone test reads the gradient operators of the ground elements
(_gradients): the facet slopes, the liftability margins and the
ceilings on a lift (_ceilings), written once on the statics of
_lift_statics, which the progress floor reads too: progress_trace holds
every lift below them, and the sampled bisection is their test.

The mesh checks read the mesh as arrays (MeshArrays: the columns the
space-time JSON reader returns, or that mesh_arrays takes from a mesh in
memory).  The ground mesh and the lift sequence fix every column, so the
causality check replays the lifts and compares each stored column with
its replay, a derivation of its own rather than spacetime.patch_block's,
which the writer uses.  The cone check runs over CONE_CHUNK facets at a
time, so that its row arrays stay small.

A replay of a trace's front times, or of a few of a mesh's vertex ids,
is one _Replay: the lifts sorted once by (vertex, place), so the value
of any vertex just after any lift is one searchsorted lookup.  The
inflow facets of all a mesh's elements are replayed per ground element
instead (_inflow_facets), by running maxima over the rows sorted once by
element.  The liftability replay checks every recorded old time in one
pass and evaluates the (lift, star element) ceilings in batched passes,
reporting the first failure in lift order; the sampled lifts are
bisected together over flattened (sample, star element) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import geometry
from .ground_mesh import GroundMesh
from .spacetime import MeshArrays, RunTrace, SpaceTimeMesh, mesh_arrays


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

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)


Mesh = Union[SpaceTimeMesh, MeshArrays]


def _as_arrays(mesh: Mesh) -> MeshArrays:
    return mesh if isinstance(mesh, MeshArrays) else mesh_arrays(mesh)


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first True in mask, or None."""
    return int(mask.argmax()) if mask.any() else None


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]), one after another."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + counts, counts))


def _facet_rows(mesh: MeshArrays, groups) -> np.ndarray:
    """Rows of the facets in the given groups (see MeshArrays), in order."""
    sizes = mesh.facet_groups
    return _ranges((np.cumsum(sizes) - sizes)[groups], sizes[groups])


# -- cone constraint on patch-boundary facets -----------------------------


def _gradients(G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradients G @ (t[1:] - t[0]) of the affine interpolants of vertex
    times t (..., k+1) on simplices with gradient operators G (..., d, k)."""
    return (G @ (t[..., 1:] - t[..., :1])[..., None])[..., 0]


def _slopes(G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lengths of the _gradients(G, t)."""
    grad = _gradients(G, t)
    return np.sqrt(geometry.dots(grad, grad))


# facet rows per pass of the cone check: bounds the memory of its row arrays
CONE_CHUNK = 4096


def check_cone_facets(mesh: Mesh, ground: Optional[GroundMesh] = None,
                      tol: float = 1e-9) -> CheckResult:
    """Every inter-patch, initial and terminal facet obeys its slope cap.

    Internal facets of a patch (those containing the base-apex edge) are
    exempt and not enumerated here.  A facet on ground element e, with
    vertex times t, has the slope |G[e] @ (t[1:] - t[0])|.  The facets
    are checked CONE_CHUNK rows at a time, as in one pass over them all.
    """
    mesh = _as_arrays(mesh)
    ground = ground or mesh.ground
    # every patch's inflow facets, then the frontier
    rows = _facet_rows(mesh, np.r_[2:len(mesh.facet_groups):2, 1])
    if len(rows) == 0:
        return CheckResult("cone_facets", True, "no facets (empty mesh)")
    vertex_times = mesh.vertices[:, -1]
    G = geometry.gradient_operators(ground.vertices[ground.elements])
    worst, violations, offenders = [], 0, []
    for start in range(0, len(rows), CONE_CHUNK):
        chunk = rows[start:start + CONE_CHUNK]
        gels = mesh.facet_element[chunk]
        verts = mesh.facet_vertices[chunk]
        slopes = _slopes(G[gels], vertex_times[verts])
        caps = 1.0 / ground.speeds[gels]
        ratio = slopes / caps
        worst.append(ratio.max())
        # written so that a NaN ratio counts as a violation
        bad = np.flatnonzero(~(ratio <= 1.0 + tol))
        violations += len(bad)
        offenders += [
            {"ground_element": int(gels[i]),
             "vertices": verts[i].tolist(),
             "slope": float(slopes[i]),
             "cap": float(caps[i])}
            for i in bad[:5 - len(offenders)]
        ]
    # np.max, unlike max(), keeps a NaN
    worst = float(np.max(worst))
    return CheckResult(
        "cone_facets",
        violations == 0,
        f"{len(rows)} facets, worst slope/cap {worst:.12f}",
        details={"facets": len(rows), "worst_ratio": worst,
                 "violations": violations, "offenders": offenders},
    )


# -- progress guarantees from the trace -----------------------------------


def _foreign_trace(trace: RunTrace, ground: GroundMesh,
                   verts: np.ndarray) -> Optional[str]:
    """Why a trace whose lifts move verts cannot be a run on ground, or
    None: its initial times are not the ground mesh's, or a lift moves a
    vertex the ground mesh does not have."""
    n = ground.n_vertices
    if len(trace.initial_times) != n:
        return (f"trace has {len(trace.initial_times)} initial times for a "
                f"ground mesh of {n} vertices")
    v = _first(np.asarray(trace.initial_times, dtype=float)
               != ground.initial_times)
    if v is not None:
        return (f"trace starts vertex {v} at {trace.initial_times[v]}, the "
                f"ground mesh at {ground.initial_times[v]}")
    foreign = np.flatnonzero((verts < 0) | (verts >= n))
    if len(foreign):
        idx = int(foreign[0])
        return (f"lift {idx} moves vertex {trace.lifts[idx].vertex}, which "
                f"the ground mesh does not have")
    return None


def _foreign_binding(trace: RunTrace, ground: GroundMesh) -> Optional[str]:
    """Why a lift's binding cannot be one that a run on ground records, or
    None.  The element is null exactly when the target bound the lift,
    and otherwise a ground element holding the lifted vertex.  A face is
    null unless d = 3, and there it is (vertex, j, k) with j and k two
    other vertices of the element (see front._star_constraints)."""
    elements = ground.elements.tolist()
    for i, r in enumerate(trace.lifts):
        e, face = r.element, r.face
        if e is None and r.kind != "target":
            return f"lift {i} is bound by {r.kind} on no element"
        if e is not None and r.kind == "target":
            return f"lift {i} is bound by the target on element {e}"
        if e is not None and not (0 <= e < len(elements)
                                  and r.vertex in elements[e]):
            return (f"lift {i}'s element {e} is not a ground element holding "
                    f"its vertex {r.vertex}")
        if face is None:
            continue
        if ground.dim != 3 or e is None:
            return (f"lift {i} records face {list(face)}, which only a cone "
                    f"or progress lift of a d = 3 run has")
        if (face[0] != r.vertex or len(set(face)) != 3
                or not set(face) <= set(elements[e])):
            return (f"lift {i}'s face {list(face)} is not its vertex "
                    f"{r.vertex} and two other vertices of element {e}")
    return None


def _mesh_mismatch(trace: RunTrace, mesh: MeshArrays) -> Optional[str]:
    """Why the trace is not the run that built mesh, or None: lift i must
    have made patch i, of the same vertex, with its apex at the lift's new
    time.  (Both start from the ground mesh's initial times: the trace by
    _foreign_trace, the mesh by check_causality.)"""
    if len(trace.lifts) != len(mesh.patch_id):
        return (f"trace has {len(trace.lifts)} lifts for a mesh of "
                f"{len(mesh.patch_id)} patches")
    lifts = trace.lifts
    i = _first((np.array([r.patch for r in lifts]) != mesh.patch_id)
               | (np.array([r.vertex for r in lifts]) != mesh.patch_vertex)
               | (np.array([r.new_time for r in lifts], dtype=float)
                  != mesh.vertices[mesh.patch_apex, -1]))
    if i is not None:
        return f"lift {i} did not make patch {mesh.patch_id[i]} of the mesh"
    return None


# -- lift ceilings ------------------------------------------------------------


def _lift_statics(X: np.ndarray, epsilon: float):
    """(w, G, faces) of k-simplices X (..., k+1, d), by the geometry
    primitives: each vertex's altitude w over its opposite facet's hull
    and the gradient operators G; for k = 3, faces = (kappa, fw, fG),
    each face l's cap kappa as a fraction of the element's, (1 - epsilon)
    times vertex l's clearance ratio over it, and the (w, G) of the face
    as a triangle, with its vertices in the order facet_index(3)[l]."""
    k = X.shape[-2] - 1
    F = X[..., geometry.facet_index(k), :]
    foot, bary = geometry.hull_feet(X, F)
    w = np.sqrt(geometry.dots(X - foot, X - foot))
    G = geometry.gradient_operators(X)
    if k < 3:
        return w, G, None
    # clearance_ratios(X, F), on the feet already found
    kappa = (1.0 - epsilon) * geometry._clearance(X, F, foot, bary)
    return w, G, (kappa, *_lift_statics(F, epsilon)[:2])


def _ceilings(ground: GroundMesh, elems: np.ndarray, li: np.ndarray,
              T: np.ndarray, statics, at: np.ndarray, epsilon: float,
              slack: float):
    """The test of lifting local vertex li[r] of element elems[r] from the
    times T[r], with row r's _lift_statics at index at[r]: given the
    lifted times, (kind, mask of the rows above it) per ceiling, to a
    relative and an absolute slack.  The ceilings: the cone (gradient
    within the cap); for d = 2 the progress ceiling, the top other vertex
    plus (1 - epsilon) * w * cap; for d = 3 both on each face holding the
    lifted vertex, with cap kappa * cap."""
    d, pf = ground.dim, 1.0 - epsilon
    rows = np.arange(len(elems))
    w, G, faces = statics
    G, cap = G[at], 1.0 / ground.speeds[elems]
    cone_cap = cap * (1.0 + slack)
    lifted = li[:, None] == np.arange(d + 1)
    if d == 2:
        # the element is the one triangle holding the lifted vertex
        top = np.where(lifted, -math.inf, T).max(axis=1)[:, None]
        wf, kappa, cap = w[at, li][:, None], 1.0, cap[:, None]
    elif d == 3:
        # the faces l != li hold the lifted vertex, at place p in each
        l = geometry.facet_index(3)[li]              # (R, 3)
        face = geometry.facet_index(3)[l]            # (R, 3, 3)
        p = li[:, None] - (li[:, None] > l)
        kappa, fw, fG = faces
        kappa, wf = kappa[at[:, None], l], fw[at[:, None], l, p]
        GF, cap = fG[at[:, None], l], cap[:, None]
        face_cap = kappa * cap * (1.0 + slack)
        top = np.where(face == li[:, None, None], -math.inf,
                       T[rows[:, None, None], face]).max(axis=-1)
    if d > 1:
        progress = top + pf * wf * kappa * cap * (1.0 + slack) + slack

    def test(tr: np.ndarray) -> list:
        ts = np.where(lifted, tr[:, None], T)
        found = [("cone", _slopes(G, ts) > cone_cap)]
        if d == 3:
            fts = ts[rows[:, None, None], face]
            found.append(("face cap",
                          (_slopes(GF, fts) > face_cap).any(axis=1)))
        if d > 1:
            found.append(("progress" if d == 2 else "face progress",
                          (tr[:, None] > progress).any(axis=1)))
        return found

    return test


def _ceiling_fault(ground: GroundMesh, replay, statics, epsilon: float,
                   slack: float) -> Optional[str]:
    """The first lift of a replayed trace above one of its ceilings in the
    front just before it, as a message, or None; REPLAY_CHUNK at a time."""
    verts, new = replay.vertex, replay.new
    for start in range(0, len(new), REPLAY_CHUNK):
        lifts = np.arange(start, min(start + REPLAY_CHUNK, len(new)))
        owner, elems, li = _star_rows(ground, verts[lifts])
        lift = lifts[owner]
        T = replay.after(ground.elements[elems], lift[:, None] - 1)
        found = _ceilings(ground, elems, li, T, statics, elems, epsilon,
                          slack)(new[lift])
        r = _first(np.logical_or.reduce([mask for _, mask in found]))
        if r is not None:
            i = int(lift[r])
            kind = next(kind for kind, mask in found if mask[r])
            return (f"lift {i} (vertex {verts[i]}) to {new[i]:.17g} is above "
                    f"its {kind} ceiling on element {elems[r]}")
    return None


def _progress_floors(ground: GroundMesh, statics):
    """Per-vertex (omega_speed, floor) from the ground mesh's
    _lift_statics: omega_speed(v) is the least altitude / speed over v's
    star.  For d = 3 the floor is also at most v's in-face altitude times
    kappa over speed, on each face holding v."""
    w, _, faces = statics
    ids, speeds = ground.elements, ground.speeds[:, None]
    floor = np.full(ground.n_vertices, math.inf)
    np.minimum.at(floor, ids, w / speeds)
    omega_speed = floor.copy()
    if faces is not None:
        kappa, fw, _ = faces
        np.minimum.at(floor, ids[:, geometry.facet_index(3)],
                      kappa[..., None] * fw / speeds[..., None])
    return omega_speed, floor


def check_progress_trace(trace: RunTrace, ground: GroundMesh,
                         tol: float = 1e-9,
                         mesh: Optional[Mesh] = None) -> CheckResult:
    """Every lift between its floor and its ceilings, plus the worst-case
    patch and element budgets.

    Every non-clamped lift must advance its vertex by at least
    epsilon * floor(v), where floor(v) is the speed-scaled minimum altitude
    of v (for d = 3 additionally min over the capped triangular faces),
    derived from coordinates by _progress_floors, and no lift may end
    above a ceiling (_ceilings, slack tol) in the front just before it.
    Total patches are bounded by (T/eps) * sum(1/omega_speed) and, for
    d = 2, total elements by six times that.  Given the mesh, the trace
    must also be the run that built it (see _mesh_mismatch).  Each lift's
    binding must be one a run on ground records (_foreign_binding).
    """
    replay, old = _trace_replay(trace)
    verts, new = replay.vertex, replay.new
    foreign = (_foreign_trace(trace, ground, verts)
               or _foreign_binding(trace, ground))
    if foreign is None and mesh is not None:
        foreign = _mesh_mismatch(trace, _as_arrays(mesh))
    if foreign:
        return CheckResult("progress_trace", False, foreign)
    eps = trace.epsilon
    T = trace.target_time
    statics = _lift_statics(ground.vertices[ground.elements], eps)
    omega_speed, floor = _progress_floors(ground, statics)
    ceiling = _ceiling_fault(ground, replay, statics, eps, tol)
    free = np.flatnonzero(new < T)  # the lifts not clamped at the target
    advance = new[free] - old[free]
    scale = eps * floor[verts[free]]
    required = scale * (1.0 - tol)
    offenders = [{"vertex": int(verts[free[i]]), "advance": float(advance[i]),
                  "required": float(required[i])}
                 for i in np.flatnonzero(advance < required)]
    worst_margin = float(np.min(advance / scale, initial=math.inf))
    n_elements = int(np.diff(ground.star_offsets)[verts].sum())
    inv_omega = float(np.sum(1.0 / omega_speed))
    patch_budget = (T / eps) * inv_omega
    element_budget = 6.0 * patch_budget if ground.dim == 2 else None
    n_patches = len(trace.lifts)
    over_budget = n_patches > patch_budget
    if ground.dim == 2 and n_elements > element_budget:
        over_budget = True
    passed = not offenders and not over_budget and ceiling is None
    return CheckResult(
        "progress_trace",
        passed,
        ceiling or
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
            if worst_margin == math.inf else worst_margin,
            "violations": offenders[:5],
        },
    )


# -- replay of the lift sequence ---------------------------------------------


class _Replay:
    """The value of any vertex after any lift, without stepping through
    the lifts.

    Lift i sets vertex[i] to new[i] and runs in place position[i], a
    permutation of the lift indices.  The lifts are sorted once by
    (vertex, place), so the value of vertex u just after the lift in place
    i, that of u's last lift up to there or else initial[u], is one
    searchsorted lookup.  A sentinel key of -1 in front keeps every lookup
    position in range.  A trace replays the front's times; a mesh replays
    its vertex ids, patch p making vertex n + p, its apex.
    """

    def __init__(self, vertex: np.ndarray, initial: np.ndarray,
                 new: np.ndarray, position: np.ndarray):
        order = np.lexsort((position, vertex))
        self.vertex, self.initial, self.new = vertex, initial, new
        self._n = len(vertex)
        self._owner = np.concatenate([[-1], vertex[order]])
        self._keys = np.concatenate([[-1], self._owner[1:] * self._n
                                     + position[order]])
        self._new = np.concatenate([np.zeros(1, new.dtype), new[order]])

    def after(self, u: np.ndarray, i) -> np.ndarray:
        """Values of vertices u just after the lift in place i (broadcast
        against u); i = -1 gives the initial values."""
        pos = np.searchsorted(self._keys, u * self._n + i, side="right") - 1
        return np.where(self._owner[pos] == u, self._new[pos], self.initial[u])


def _trace_replay(trace: RunTrace):
    """The replay of a trace's front times, and each lift's old time as
    the trace records it."""
    vertex = np.array([r.vertex for r in trace.lifts], dtype=np.int64)
    new = np.array([r.new_time for r in trace.lifts], dtype=float)
    old = np.array([r.old_time for r in trace.lifts], dtype=float)
    return _Replay(vertex, np.asarray(trace.initial_times, dtype=float), new,
                   np.arange(len(new))), old


def _star_rows(ground: GroundMesh, verts: np.ndarray):
    """The stars of verts as rows (owner, element, local index): owner is
    the position in verts, stars follow each other in that order and each
    lists its elements in element order, like ground.stars."""
    start = ground.star_offsets[verts]
    count = ground.star_offsets[verts + 1] - start
    owner = np.repeat(np.arange(len(verts)), count)
    pos = _ranges(start, count)
    return owner, ground.star_elements[pos], ground.star_locals[pos]


def _inflow_facets(ground: GroundMesh, owner: np.ndarray, star: np.ndarray,
                   slot: np.ndarray) -> np.ndarray:
    """The inflow facet of each (patch, star element) row, replayed per
    ground element.  The rows on one element, in patch order, each put
    their patch's apex in their slot, so slot k of a row's inflow facet
    holds the apex of the last earlier row on its element with slot k,
    or else the element's initial vertex.  That is a running maximum of
    owner + 1 over the element's rows with slot k, taken over all rows
    sorted by element, with element e's values offset by e * (m + 1) so
    that no maximum runs on into the next element."""
    n, m = ground.n_vertices, len(owner)
    order = np.argsort(star * m + np.arange(m))  # by element, then row
    on, lifted = star[order], slot[order]
    offset = on * (m + 1)
    apex = offset + owner[order] + 1
    facets = np.empty((m, ground.dim + 1), dtype=np.int64)
    last = np.empty(m, dtype=np.int64)
    for k, initial in enumerate(ground.elements.T):
        ran = np.maximum.accumulate(np.where(lifted == k, apex, offset))
        # owner + 1 of the last earlier row with slot k; 0 or below if none
        last[:1], last[1:] = -1, ran[:-1]
        last -= offset
        facets[order, k] = np.where(last > 0, n - 1 + last, initial[on])
    return facets


# -- causality -------------------------------------------------------------


def _facet_mismatch(mesh: MeshArrays, rows, on, vertices, producer):
    """Mask of the stored facet rows that are not the facets on ground
    elements on over vertices, made by producer."""
    return ((mesh.facet_element[rows] != on)
            | (mesh.facet_vertices[rows] != vertices).any(axis=1)
            | (mesh.facet_producer[rows] != producer))


def _replay_fault(mesh: MeshArrays, replay: _Replay, owner: np.ndarray,
                  star: np.ndarray, slot: np.ndarray) -> Optional[str]:
    """Why the stored columns are not the replayed ones (see
    check_causality), or None: the first differing row of the first
    column that differs, in the order of the comparisons below."""
    ground, vertex, time = mesh.ground, mesh.patch_vertex, mesh.vertices[:, -1]
    n, n_el, n_patches, m = (ground.n_vertices, ground.n_elements,
                             len(vertex), len(owner))
    pids, over, n_vertices = np.arange(n_patches), mesh.vertex_ground, len(time)
    if len(over) != n_vertices:
        return f"{len(over)} vertex_ground entries for {n_vertices} vertices"
    p = _first(mesh.patch_id != pids)
    if p is not None:
        return f"patch {p} has id {mesh.patch_id[p]}"
    if n_vertices != n + n_patches:
        return (f"{n_vertices} vertices for {n} ground vertices and "
                f"{n_patches} patches")
    ground_of = np.concatenate([np.arange(n), vertex])
    v = _first(over != ground_of)
    if v is not None:
        return (f"{'initial ' * (v < n)}vertex {v} is not over ground vertex "
                f"{ground_of[v]}")
    v = _first((mesh.vertices[:, :-1] != ground.vertices[ground_of]).any(axis=1))
    if v is not None:
        return (f"vertex {v} is not at the place of its ground vertex "
                f"{ground_of[v]}")
    v = _first(time[:n] != ground.initial_times)
    if v is not None:
        return f"initial vertex {v} is not at the initial time of ground vertex {v}"
    base, apex = replay.after(vertex, pids - 1), n + pids
    for end, stored, replayed in (("base", mesh.patch_base, base),
                                  ("apex", mesh.patch_apex, apex)):
        p = _first(stored != replayed)
        if p is not None:
            return f"patch {p}'s {end} is vertex {stored[p]}, not {replayed[p]}"
    sizes = np.diff(ground.star_offsets)[vertex]
    p = _first(mesh.patch_sizes != sizes)
    if p is not None:
        return (f"patch {p} has {mesh.patch_sizes[p]} elements for the "
                f"{sizes[p]} elements of its vertex's star")
    if len(mesh.elements) != m or len(mesh.element_patch) != m:
        return (f"the patches list {m} elements and element_patch marks "
                f"{len(mesh.element_patch)}, of {len(mesh.elements)} elements")
    facets = _inflow_facets(ground, owner, star, slot)
    first = np.cumsum(sizes) - sizes  # each patch's first row
    j = _first((mesh.patch_elements != np.arange(m))
               | (mesh.element_patch != owner)
               | (mesh.elements[:, 0] != n + owner)
               | (mesh.elements[:, 1:] != facets).any(axis=1))
    if j is not None:
        p, k = owner[j], j - first[owner[j]]
        return (f"element {j} is not patch {p}'s element {k}: listed "
                f"there, marked as in patch {p}, and its apex over "
                f"inflow facet {k}")
    p = _first(~(time[apex] > time[base]))
    if p is not None:
        return f"patch {p}'s apex time is not above its base time"
    groups = np.concatenate([[n_el, n_el], np.repeat(sizes, 2)])
    g = _first(mesh.facet_groups != groups)
    if g is not None and g < 2:
        return (f"{mesh.facet_groups[g]} {('initial', 'frontier')[g]} facets "
                f"for {n_el} ground elements")
    if g is not None:
        return (f"patch {g // 2 - 1} has {mesh.facet_groups[g]} "
                f"{('inflow', 'outflow')[g % 2]} facets for {groups[g]} elements")
    on = np.arange(n_el)
    e = _first(_facet_mismatch(mesh, on, on, ground.elements, -1))
    if e is not None:
        return (f"initial facet {e} is not ground element {e} over its "
                f"initial vertices")
    # patch p's inflow facets follow the initial facets, the frontier and
    # both groups of every earlier patch, and its outflow facets follow them
    rows = 2 * n_el + np.arange(m) + first[owner]
    made = np.maximum(facets.max(axis=1) - n, -1)
    r = _first(_facet_mismatch(mesh, rows, star, facets, made))
    if r is not None:
        return (f"sweep failed at patch {owner[r]}: its inflow facet "
                f"{r - first[owner[r]]} is not the last facet made on ground "
                f"element {star[r]}")
    facets[np.arange(m), slot] = n + owner  # now the outflow facets
    rows += sizes[owner]
    r = _first(_facet_mismatch(mesh, rows, star, facets, owner))
    if r is not None:
        p, k = owner[r], r - first[owner[r]]
        return (f"patch {p}'s outflow facet {k} is not its inflow facet "
                f"{k} with the base replaced by the apex, made by patch {p}")
    front = replay.after(ground.elements, n_patches - 1)
    made = np.maximum(front.max(axis=1) - n, -1)
    e = _first(_facet_mismatch(mesh, n_el + on, on, front, made))
    if e is not None:
        return (f"frontier facet {e} is not the last facet made on ground "
                f"element {e}")
    e = _first(~(time[front] >= time[n:].max(initial=-math.inf)).all(axis=1))
    if e is not None:
        return f"frontier facet {e} is below the last apex time"
    return None


def check_causality(mesh: Mesh) -> CheckResult:
    """The mesh must be the one its lift sequence builds, and so a causal
    sweep: each patch consumes only facets made and not yet consumed.

    Replayed with patch p making vertex n + p, the inflow facet of each
    (patch, star element) row is the element's vertices just before the
    patch.  The elements, the outflow facets (the apex in the lifted
    slot), the patch columns and the producers follow; the initial facets
    and the frontier are the lookups before the first and after the last
    patch.  Each stored column must equal its replay, and each vertex lie
    exactly at its ground vertex's place, the first n at the ground
    mesh's initial times.  Each apex must be later than its base, which
    is every element having positive volume, and no frontier vertex below
    the last apex time.  A self-test swaps a patch with the producer of
    one of its inflow facets in the replay: the elements must then differ
    from it.
    """
    mesh = _as_arrays(mesh)
    ground = mesh.ground
    n, vertex = ground.n_vertices, mesh.patch_vertex
    pids = np.arange(len(vertex))
    owner, star, slot = _star_rows(ground, vertex)
    fault = _replay_fault(mesh, _Replay(vertex, np.arange(n), n + pids, pids),
                          owner, star, slot)
    if fault:
        return CheckResult("causality", False, fault)
    injected = "no dependent pair to inject"
    facets = mesh.elements[:, 1:]
    r = _first(facets.max(axis=1) >= n)
    if r is not None:
        i, j = int(facets[r].max()) - n, int(owner[r])
        position = pids.copy()
        position[[i, j]] = j, i
        # in the swapped order the sweep fails from patch i's place to j's
        rows = (owner >= i) & (owner <= j)
        swapped = _Replay(vertex, np.arange(n), n + pids, position).after(
            ground.elements[star[rows]], position[owner[rows], None] - 1)
        if np.array_equal(swapped, facets[rows]):
            return CheckResult(
                "causality", False,
                "injected patch-order swap was not detected",
                details={"swapped": [i, j]},
            )
        injected = f"injected swap of patches {i},{j} detected"
    return CheckResult(
        "causality", True,
        f"sweep of {len(vertex)} patches succeeded; {injected}",
    )


# -- liftability replay ------------------------------------------------------

# lifts per batched pass of the replay: bounds the memory of its row arrays
REPLAY_CHUNK = 1024


def _margin_table(ground: GroundMesh):
    """The ground elements' gradient operators G, and the gradients of
    their barycentric coordinates (m, d+1, d): for vertex j >= 1 G's
    column j - 1, for vertex 0 minus the sum of G's columns."""
    G = geometry.gradient_operators(ground.vertices[ground.elements])
    Gt = np.swapaxes(G, 1, 2)
    return G, np.concatenate([-Gt.sum(axis=1, keepdims=True), Gt], axis=1)


def _liftability_margins(ground: GroundMesh, table, elems, T):
    """Margin by which each row's lowest vertex can clear its middle one.

    Row r is element elems[r] with vertex times T[r].  Lifting the lowest
    vertex by s turns the gradient g into g + s * a, a the gradient of its
    barycentric coordinate, so its cone ceiling is its time plus the larger
    root of |g + s * a| = cap (-inf if none).  Returns (margins, lowest
    local indices, middle times).
    """
    G, grad_lambda = table
    rows = np.arange(len(elems))
    order = np.argsort(T, axis=1, kind="stable")
    low, mid = order[:, 0], order[:, 1]
    cap = 1.0 / ground.speeds[elems]
    g = _gradients(G[elems], T)
    a = grad_lambda[elems, low]
    aa, ag = geometry.dots(a, a), geometry.dots(a, g)
    disc = ag * ag - aa * (geometry.dots(g, g) - cap * cap)
    root = (np.sqrt(np.maximum(disc, 0.0)) - ag) / aa
    ceiling = np.where(disc < 0, -math.inf, T[rows, low] + root)
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
    n_lifts = len(trace.lifts)
    replay, old = _trace_replay(trace)
    verts = replay.vertex
    foreign = _foreign_trace(trace, ground, verts)
    if foreign:
        return CheckResult(name, False, foreign)
    prev = replay.after(verts, np.arange(n_lifts) - 1)
    stale = np.flatnonzero(prev != old)
    stop = int(stale[0]) if len(stale) else n_lifts
    table = _margin_table(ground)
    worst = math.inf
    for start in range(0, stop, REPLAY_CHUNK):
        lifts = np.arange(start, min(start + REPLAY_CHUNK, stop))
        owner, elems, _ = _star_rows(ground, verts[lifts])
        lift = lifts[owner]
        ids = ground.elements[elems]
        T = replay.after(ids, lift[:, None])
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
            f"{float(prev[stop])}, trace says {r.old_time}",
        )
    final = replay.after(np.arange(ground.n_vertices), n_lifts - 1)
    unfinished = np.flatnonzero(final != trace.target_time)
    if len(unfinished) and trace.target_time > 0:
        v = int(unfinished[0])
        return CheckResult(
            name, False,
            f"replay ended with {len(unfinished)} vertices not at the "
            f"target time (first: {v} at {float(final[v])})",
        )
    return CheckResult(
        name, True,
        f"replayed {n_lifts} lifts, worst liftability margin "
        f"{worst:.3g}" if n_lifts else "empty trace",
    )


# -- sampled bisection oracle ------------------------------------------------

# largest relative gap between an unclamped lift and its bisected bound
LIFT_REL_TOL = 1e-7


def _oracle_max_lifts(ground: GroundMesh, verts: np.ndarray, times_of,
                      epsilon: float):
    """Largest admissible lift of each vertex in verts, all found together
    by bisection on the feasibility predicate.

    times_of(u, s) gives the times of vertices u in the front state of
    sample s (broadcast together).  The predicate is _ceilings over the
    flattened (sample, star element) rows, with the rows' own statics.
    Each sample grows its bracket and bisects as a lone bisection would.

    Returns (max lifts, minimum altitude over each vertex's star).
    """
    n_samples = len(verts)
    owner, elems, li = _star_rows(ground, verts)
    rows = np.arange(len(owner))
    ids = ground.elements[elems]
    statics = _lift_statics(ground.vertices[ids], epsilon)
    test = _ceilings(ground, elems, li, times_of(ids, owner[:, None]),
                     statics, rows, epsilon, 1e-12)
    t_v = times_of(verts, np.arange(n_samples))
    w = statics[0][rows, li]
    cap = 1.0 / ground.speeds[elems]

    def feasible(t_new: np.ndarray) -> np.ndarray:
        bad = np.logical_or.reduce([mask for _, mask in test(t_new[owner])])
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
    for _ in range(60):
        midpt = 0.5 * (lo + hi)
        ok = feasible(midpt)
        lo = np.where(ok, midpt, lo)
        hi = np.where(ok, hi, midpt)
    omega = np.full(n_samples, math.inf)
    np.minimum.at(omega, owner, w)
    return lo, omega


def check_lift_bounds_sampled(trace: RunTrace, ground: GroundMesh,
                              fraction: float = 0.01,
                              seed: int = 0) -> CheckResult:
    """Re-derive a random sample of lift bounds by bisection and compare.

    Clamped lifts only need the oracle to allow reaching the target; all
    others must match the recorded new time to LIFT_REL_TOL, relative to the
    recorded time plus the vertex's minimum altitude.  The sampled lifts
    are bisected together, each in the front state just before it.
    """
    n = len(trace.lifts)
    if n == 0:
        return CheckResult("lift_bounds_sampled", True, "empty trace")
    replay, _ = _trace_replay(trace)
    foreign = _foreign_trace(trace, ground, replay.vertex)
    if foreign:
        return CheckResult("lift_bounds_sampled", False, foreign)
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    sample = np.sort(rng.choice(n, size=min(k, n), replace=False))
    oracles, omegas = _oracle_max_lifts(
        ground, replay.vertex[sample],
        lambda u, s: replay.after(u, sample[s] - 1), trace.epsilon,
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
        if err > LIFT_REL_TOL:
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


def verify(mesh: Optional[Mesh] = None,
           ground: Optional[GroundMesh] = None,
           trace: Optional[RunTrace] = None) -> VerifyReport:
    """Run every applicable check, with its default tolerance and sample,
    and collect a report.

    Mesh checks (cone facets, causality) need the mesh; trace checks
    (progress, liftability replay, sampled bound re-derivation) need the
    trace.  Either may be omitted; given both, the progress check also
    requires the trace to be the run that built the mesh.  The mesh is a
    SpaceTimeMesh or the MeshArrays that read_spacetime_json returns.
    """
    if ground is None:
        if mesh is None:
            raise ValueError("need at least a mesh or a ground mesh")
        ground = mesh.ground
    report = VerifyReport()
    if mesh is not None:
        mesh = _as_arrays(mesh)
        report.checks.append(check_cone_facets(mesh, ground))
        report.checks.append(check_causality(mesh))
    if trace is not None:
        report.checks.append(check_progress_trace(trace, ground, mesh=mesh))
        report.checks.append(check_front_snapshots(trace, ground))
        report.checks.append(check_lift_bounds_sampled(trace, ground))
    return report
