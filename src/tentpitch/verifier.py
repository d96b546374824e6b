"""Independent re-checking of a finished space-time mesh and its trace.

The checks deliberately avoid the pitcher's precomputed constraint tables:
facet slopes are re-derived from raw coordinates (batched Gram solves),
the liftability replay rebuilds its own per-element scalars, and a random
sample of lifts is re-derived from scratch with a bisection feasibility
oracle built on the geometry primitives alone.

The mesh checks read the mesh as arrays (MeshArrays: the columns the
space-time JSON reader returns, or that mesh_arrays takes from a mesh in
memory) and check the stored facet lists against the elements.  Each
vertex must have the space coordinates of its ground vertex, and each
element must be its patch's apex over the matching inflow facet, with
the apex strictly later than the patch's base, so that every element has
positive volume.  The initial facets must be the ground elements, each
outflow facet its inflow facet with the apex in place of the base, each
inflow facet the facet that the last earlier patch on its ground element
left there (the causal sweep, a chain per ground element, with that
patch as its producer), and the frontier the last facet left on each
ground element, no vertex of it below the last apex time.  Given a trace
as well, the mesh's first vertices must be the ground vertices at the
trace's initial times.  The cone check runs over CONE_CHUNK facets at a
time, so that its row arrays stay small.

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
from typing import Optional, Union

import numpy as np

from . import geometry
from .ground_mesh import GroundMesh, precompute
from .pitcher import RunTrace
from .spacetime import MeshArrays, SpaceTimeMesh, mesh_arrays


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


def _facet_slopes(ground: GroundMesh, gels: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """Max slope of each lifted ground-element facet, batched; times holds
    the facets' vertex times in the elements' local order.

    Each facet spans a full ground element, so the spatial Gram matrix is
    invertible and the squared slope is dt^T G^{-1} dt.
    """
    coords = ground.vertices[ground.elements[gels]]
    E = geometry.edge_bases(coords)
    dt = times[:, 1:] - times[:, :1]
    G = E @ np.transpose(E, (0, 2, 1))
    y = np.linalg.solve(G, dt[..., None])[..., 0]
    slope2 = np.einsum("fi,fi->f", y, dt)
    return np.sqrt(np.maximum(slope2, 0.0))


# facet rows per pass of the cone check: bounds the memory of its row arrays
CONE_CHUNK = 4096


def check_cone_facets(mesh: Mesh, ground: Optional[GroundMesh] = None,
                      tol: float = 1e-9) -> CheckResult:
    """Every inter-patch, initial and terminal facet obeys its slope cap.

    Internal facets of a patch (those containing the base-apex edge) are
    exempt and not enumerated here.  The facets are checked CONE_CHUNK
    rows at a time, each row as in one pass over all of them.
    """
    mesh = _as_arrays(mesh)
    ground = ground or mesh.ground
    # every patch's inflow facets, then the frontier
    rows = _facet_rows(mesh, np.r_[2:len(mesh.facet_groups):2, 1])
    if len(rows) == 0:
        return CheckResult("cone_facets", True, "no facets (empty mesh)")
    vertex_times = mesh.vertices[:, -1]
    worst, violations, offenders = [], 0, []
    for start in range(0, len(rows), CONE_CHUNK):
        chunk = rows[start:start + CONE_CHUNK]
        gels = mesh.facet_element[chunk]
        verts = mesh.facet_vertices[chunk]
        times = vertex_times[verts]
        slopes = _facet_slopes(ground, gels, times)
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


def _mesh_mismatch(trace: RunTrace, mesh: MeshArrays) -> Optional[str]:
    """Why the trace is not the run that built mesh, or None: the mesh's
    vertices 0..n-1 must be ground vertices 0..n-1 at the trace's initial
    times, and lift i must have made patch i, of the same vertex, with its
    apex at the lift's new time."""
    if len(trace.lifts) != len(mesh.patch_id):
        return (f"trace has {len(trace.lifts)} lifts for a mesh of "
                f"{len(mesh.patch_id)} patches")
    n = len(trace.initial_times)
    over, times = mesh.vertex_ground[:n], mesh.vertices[:n, -1]
    if len(over) < n or len(times) < n:
        return f"mesh has fewer vertices than the trace's {n} initial times"
    v = _first((over != np.arange(n))
               | (times != np.asarray(trace.initial_times, dtype=float)))
    if v is not None:
        return (f"mesh vertex {v} is not ground vertex {v} at its initial "
                f"time in the trace")
    lifts = trace.lifts
    i = _first((np.array([r.patch for r in lifts]) != mesh.patch_id)
               | (np.array([r.vertex for r in lifts]) != mesh.patch_vertex)
               | (np.array([r.new_time for r in lifts], dtype=float)
                  != mesh.vertices[mesh.patch_apex, -1]))
    if i is not None:
        return f"lift {i} did not make patch {mesh.patch_id[i]} of the mesh"
    return None


def check_progress_trace(trace: RunTrace, ground: GroundMesh,
                         tol: float = 1e-9,
                         mesh: Optional[Mesh] = None) -> CheckResult:
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
        foreign = _mesh_mismatch(trace, _as_arrays(mesh))
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


# -- causality -------------------------------------------------------------


class _Tents:
    """Per-patch rows the causality checks share.  Inflow rows run in
    patch order; owner and k give each one's patch and its place there."""

    def __init__(self, mesh: MeshArrays):
        sizes = mesh.facet_groups
        self.inflow_sizes = sizes[2::2]
        self.outflow_sizes = sizes[3::2]
        self.inflow = _facet_rows(mesh, np.s_[2::2])
        self.outflow = _facet_rows(mesh, np.s_[3::2])
        self.owner = np.repeat(np.arange(len(self.inflow_sizes)),
                               self.inflow_sizes)
        # the star of each patch's vertex: element and the vertex's slot
        _, self.star, self.slot = _star_rows(mesh.ground, mesh.patch_vertex)
        self.k = (np.arange(len(self.inflow))
                  - (np.cumsum(self.inflow_sizes)
                     - self.inflow_sizes)[self.owner])


def _element_fault(mesh: MeshArrays, tents: _Tents) -> Optional[str]:
    """Why the elements are not the tents the patches describe, or None.

    Each vertex has the space coordinates of its ground vertex, exactly
    (the writer's 17 digits round-trip).  Patch p has id p, its base and
    apex lie over its ground vertex, and its inflow facets lie on the
    elements of that vertex's star, in star order.  Its k-th element is
    its apex over its k-th inflow facet, element_patch marks it as in p,
    and the patch lists, in patch order, run through the element ids in
    creation order, so that they partition them.  Each apex is strictly
    later than its base: an element is its apex over a facet that holds
    the base, so this is exactly every element having positive
    (d+1)-volume.  Each rule is one comparison of whole arrays; a broken
    one is scanned again for its first offender.
    """
    over, n = mesh.vertex_ground, len(mesh.elements)
    if len(over) != len(mesh.vertices):
        return (f"{len(over)} vertex_ground entries for "
                f"{len(mesh.vertices)} vertices")
    ground = mesh.ground
    v = _first((mesh.vertices[:, :-1] != ground.vertices[over]).any(axis=1))
    if v is not None:
        return (f"vertex {v} is not at the place of its ground vertex "
                f"{over[v]}")
    pids = np.arange(len(mesh.patch_id))
    pid = _first(mesh.patch_id != pids)
    if pid is not None:
        return f"patch {pid} has id {mesh.patch_id[pid]}"
    vertex = mesh.patch_vertex
    for end, at in (("base", mesh.patch_base), ("apex", mesh.patch_apex)):
        pid = _first(over[at] != vertex)
        if pid is not None:
            return f"patch {pid} has its {end} off its vertex {vertex[pid]}"
    on, star = mesh.facet_element[tents.inflow], tents.star
    if len(on) != len(star) or (on != star).any():
        starts = np.cumsum(tents.inflow_sizes) - tents.inflow_sizes
        offsets = ground.star_offsets
        pid = next(pid for pid, v in enumerate(vertex.tolist())
                   if not np.array_equal(
                       on[starts[pid]:starts[pid] + tents.inflow_sizes[pid]],
                       ground.star_elements[offsets[v]:offsets[v + 1]]))
        return (f"patch {pid}'s inflow facets are not on the star of its "
                f"vertex {vertex[pid]}")
    sizes = mesh.patch_sizes
    pid = _first(sizes != tents.inflow_sizes)
    if pid is not None:
        return (f"patch {pid} has {sizes[pid]} elements for "
                f"{tents.inflow_sizes[pid]} inflow facets")
    if sizes.sum() != n or len(mesh.element_patch) != n:
        return (f"the patches list {sizes.sum()} elements and element_patch "
                f"marks {len(mesh.element_patch)}, of {n} elements")
    owner = tents.owner
    tops = np.column_stack([mesh.patch_apex[owner],
                            mesh.facet_vertices[tents.inflow]])
    j = _first((mesh.patch_elements != np.arange(n))
               | (mesh.element_patch != owner)
               | (mesh.elements != tops).any(axis=1))
    if j is not None:
        pid, k = owner[j], tents.k[j]
        return (f"element {j} is not patch {pid}'s element {k}: listed "
                f"there, marked as in patch {pid}, and its apex over "
                f"inflow facet {k}")
    time = mesh.vertices[:, -1]
    pid = _first(~(time[mesh.patch_apex] > time[mesh.patch_base]))
    if pid is not None:
        return f"patch {pid}'s apex time is not above its base time"
    return None


def _derived_fault(mesh: MeshArrays, tents: _Tents) -> Optional[str]:
    """Why the stored initial and outflow facets are not the ones the
    elements give, or None.  Initial facet e is ground element e over its
    initial vertices, made by no patch (-1).  Outflow facet k of patch p
    is its inflow facet k, which holds p's base in p's vertex's slot, with
    the apex in that slot, made by p."""
    ground = mesh.ground
    n_initial = mesh.facet_groups[0]
    if n_initial != ground.n_elements:
        return (f"{n_initial} initial facets for {ground.n_elements} "
                f"ground elements")
    e = _first((mesh.facet_element[:n_initial] != np.arange(n_initial))
               | (mesh.facet_vertices[:n_initial] != ground.elements).any(axis=1)
               | (mesh.facet_producer[:n_initial] != -1))
    if e is not None:
        return (f"initial facet {e} is not ground element {e} over its "
                f"initial vertices")
    pid = _first(tents.outflow_sizes != tents.inflow_sizes)
    if pid is not None:
        return (f"patch {pid} has {tents.outflow_sizes[pid]} outflow facets "
                f"for {tents.inflow_sizes[pid]} inflow facets")
    owner, inflow, outflow, slot = (tents.owner, tents.inflow, tents.outflow,
                                    tents.slot)
    rows = np.arange(len(inflow))
    tops = mesh.facet_vertices[inflow]
    held = tops[rows, slot] == mesh.patch_base[owner]
    tops[rows, slot] = mesh.patch_apex[owner]
    i = _first(~held
               | (mesh.facet_element[outflow] != mesh.facet_element[inflow])
               | (mesh.facet_vertices[outflow] != tops).any(axis=1)
               | (mesh.facet_producer[outflow] != owner))
    if i is not None:
        pid, k = owner[i], tents.k[i]
        return (f"patch {pid}'s outflow facet {k} is not its inflow facet "
                f"{k} with the base replaced by the apex, made by patch {pid}")
    return None


def _previous_rows(mesh: MeshArrays, tents: _Tents, position: np.ndarray):
    """For each inflow row, in patch order, the facet row it must consume
    when the patches run in the given order (position[p] is p's place):
    the outflow row of the last earlier patch on its ground element, or
    else that element's initial facet.  Also returns the inflow rows
    sorted by (ground element, place), the chain the answer comes from."""
    on = mesh.facet_element[tents.inflow]
    chain = np.argsort(on * len(position) + position[tents.owner])
    first = np.ones(len(chain), dtype=bool)
    first[1:] = on[chain[1:]] != on[chain[:-1]]
    prev = np.empty(len(chain), dtype=np.int64)
    prev[chain[1:]] = tents.outflow[chain[:-1]]
    prev[chain[first]] = on[chain[first]]
    return prev, chain


def _unproduced(mesh: MeshArrays, tents: _Tents,
                prev: np.ndarray) -> np.ndarray:
    """Mask of the inflow rows that are not the facet rows prev names
    (see _previous_rows).  Given _element_fault and _derived_fault, each
    patch swaps one facet for one on each element of its star, so this is
    the causal sweep: a patch may only consume facets already produced and
    not yet consumed."""
    return (mesh.facet_vertices[tents.inflow]
            != mesh.facet_vertices[prev]).any(axis=1)


def _link_fault(mesh: MeshArrays, tents: _Tents, prev: np.ndarray,
                chain: np.ndarray) -> Optional[str]:
    """Why the stored producers of the inflow facets or the stored
    frontier are not the ones the sweep in creation order (prev, chain)
    gives, or None.  An inflow facet names the patch whose outflow it is,
    or -1; frontier facet e is the last facet made on ground element e."""
    given = mesh.facet_producer[tents.inflow]
    made = mesh.facet_producer[prev]
    i = _first(given != made)
    if i is not None:
        return (f"patch {tents.owner[i]}'s inflow facet {tents.k[i]} has "
                f"producer {given[i]}, not {made[i]}")
    n_elements = mesh.ground.n_elements
    n_frontier = mesh.facet_groups[1]
    if n_frontier != n_elements:
        return f"{n_frontier} frontier facets for {n_elements} ground elements"
    # the last row of each element's stretch of the chain, or else the
    # element's initial facet
    on = mesh.facet_element[tents.inflow][chain]
    end = np.ones(len(chain), dtype=bool)
    end[:-1] = on[:-1] != on[1:]
    last = np.arange(n_elements)
    last[on[end]] = tents.outflow[chain[end]]
    frontier = np.arange(n_elements) + mesh.facet_groups[0]
    e = _first((mesh.facet_element[frontier] != mesh.facet_element[last])
               | (mesh.facet_vertices[frontier]
                  != mesh.facet_vertices[last]).any(axis=1)
               | (mesh.facet_producer[frontier] != mesh.facet_producer[last]))
    if e is not None:
        return (f"frontier facet {e} is not the last facet made on ground "
                f"element {e}")
    return None


def check_causality(mesh: Mesh) -> CheckResult:
    """Causal sweep must succeed; a self-test swaps two dependent patches
    and asserts the sweep then fails.  The elements must be the tents that
    the patches describe (see _element_fault), and every stored facet must
    be the one the elements give: the initial and outflow facets before
    the sweep (_derived_fault), the inflow producers and the frontier
    after it (_link_fault).  The frontier must be the terminal front:
    no frontier vertex is below the last apex time."""
    mesh = _as_arrays(mesh)
    tents = _Tents(mesh)
    fault = _element_fault(mesh, tents) or _derived_fault(mesh, tents)
    if fault:
        return CheckResult("causality", False, fault)
    n_patches = len(mesh.patch_id)
    order = np.arange(n_patches)
    prev, chain = _previous_rows(mesh, tents, order)
    i = _first(_unproduced(mesh, tents, prev))
    if i is not None:
        pid = int(tents.owner[i])
        row = tents.inflow[i]
        key = (int(mesh.facet_element[row]),
               tuple(mesh.facet_vertices[row].tolist()))
        return CheckResult(
            "causality", False,
            f"sweep failed at patch {pid}: patch {pid} consumes facet {key} "
            "before it was produced",
            details={"failed_patch": pid},
        )
    injected = "no dependent pair to inject"
    producers = mesh.facet_producer[tents.inflow]
    first = _first(producers >= 0)
    if first is not None:
        i, j = int(producers[first]), int(tents.owner[first])
        swapped = order.copy()
        swapped[[i, j]] = swapped[[j, i]]
        if not _unproduced(mesh, tents,
                           _previous_rows(mesh, tents, swapped)[0]).any():
            return CheckResult(
                "causality", False,
                "injected patch-order swap was not detected",
                details={"swapped": [i, j]},
            )
        injected = f"injected swap of patches {i},{j} detected"
    fault = _link_fault(mesh, tents, prev, chain)
    if fault:
        return CheckResult("causality", False, fault)
    if n_patches:
        time = mesh.vertices[:, -1]
        top = time[mesh.patch_apex].max()
        frontier = mesh.facet_vertices[_facet_rows(mesh, [1])]
        e = _first(~(time[frontier] >= top).all(axis=1))
        if e is not None:
            return CheckResult(
                "causality", False,
                f"frontier facet {e} is below the last apex time")
    return CheckResult(
        "causality", True,
        f"sweep of {n_patches} patches succeeded; {injected}",
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
    pos = _ranges(start, count)
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
    cap = 1.0 / ground.speeds[elems]
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

# largest relative gap between an unclamped lift and its bisected bound
LIFT_REL_TOL = 1e-7


def _oracle_max_lifts(ground: GroundMesh, verts: np.ndarray, times_of,
                      epsilon: float):
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
    cap = 1.0 / ground.speeds[elems]
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
