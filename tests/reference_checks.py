"""Object-based mesh checks, kept as the reference for the array checks in
tentpitch.verifier: the cone gather and dict-keyed causal sweep that walk
Facet and Patch objects, and the causality check's replay of the lift
sequence, one patch at a time on lists, with every stored column, the
vertex coordinates, the initial front and the tents' heights compared in
plain loops.  The array checks must give the same results.
"""

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from tentpitch.geometry import gradient_operators
from tentpitch.verifier import CheckResult, _slopes


def _first_diff(a: list, b: list) -> int:
    """Position of the first entry where lists a and b differ."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


# -- causal sweep ----------------------------------------------------------


@dataclass
class SweepResult:
    ok: bool
    patches_visited: int
    failed_patch: Optional[int] = None
    message: str = ""


def _sweep(initial_facets, patches, visitor=None) -> SweepResult:
    tokens: dict[tuple[int, tuple[int, ...]], object] = {}
    for f in initial_facets:
        tokens[(f.ground_element, f.vertices)] = "initial"
    for count, patch in enumerate(patches):
        inflow_tokens = []
        for f in patch.inflow:
            key = (f.ground_element, f.vertices)
            if key not in tokens:
                return SweepResult(
                    False,
                    count,
                    failed_patch=patch.id,
                    message=(
                        f"patch {patch.id} consumes facet {key} "
                        "before it was produced"
                    ),
                )
            inflow_tokens.append(tokens.pop(key))
        if visitor is not None:
            out_token = visitor(patch, inflow_tokens)
        else:
            out_token = patch.id
        for f in patch.outflow:
            tokens[(f.ground_element, f.vertices)] = out_token
    return SweepResult(True, len(patches))


def causal_sweep(mesh, visitor: Optional[Callable] = None) -> SweepResult:
    """Visit patches in creation order, asserting every inflow facet was
    already produced.  The visitor mocks a patch-at-a-time solver: it
    receives (patch, inflow tokens) and returns an opaque outflow token.
    """
    return _sweep(mesh.initial_facets, mesh.patches, visitor)


# -- cone facets -------------------------------------------------------------


def cone_facets(mesh, ground=None, tol=1e-9) -> CheckResult:
    ground = ground or mesh.ground
    facets = [f for p in mesh.patches for f in p.inflow]
    facets.extend(mesh.frontier)
    if len(facets) == 0:
        return CheckResult("cone_facets", True, "no facets (empty mesh)")
    st_times = np.array([v[-1] for v in mesh.vertices])
    gels = np.array([f.ground_element for f in facets])
    verts = np.array([f.vertices for f in facets])
    G = gradient_operators(ground.vertices[ground.elements])
    slopes = _slopes(G[gels], st_times[verts])
    caps = 1.0 / ground.speeds[gels]
    ratio = slopes / caps
    worst = float(ratio.max())
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


# -- causality ---------------------------------------------------------------


def _replay(mesh, order):
    """The lift sequence replayed one patch at a time on lists, the
    patches taken in the given order of ids, patch p making vertex n + p:
    the base and the (ground element, inflow facet) pairs of each patch,
    by id, and the front after the last patch."""
    ground = mesh.ground
    n, stars = ground.n_vertices, ground.stars
    front = [tuple(verts) for verts in ground.elements.tolist()]
    last = list(range(n))
    bases, inflows = {}, {}
    for pid in order:
        v = mesh.patches[pid].vertex
        bases[pid] = last[v]
        inflows[pid] = [(e, front[e]) for e, _ in stars[v]]
        for e, li in stars[v]:
            front[e] = front[e][:li] + (n + pid,) + front[e][li + 1:]
        last[v] = n + pid
    return bases, inflows, front


def replay_fault(mesh) -> Optional[str]:
    """The stored columns against a replay of the lift sequence, column by
    column in the verifier's order."""
    ground, patches = mesh.ground, mesh.patches
    n, n_el, n_patches = ground.n_vertices, ground.n_elements, len(patches)
    over, n_vertices = list(mesh.vertex_ground), len(mesh.vertices)
    if len(over) != n_vertices:
        return f"{len(over)} vertex_ground entries for {n_vertices} vertices"
    pids = list(range(n_patches))
    ids = [p.id for p in patches]
    if ids != pids:
        pid = _first_diff(ids, pids)
        return f"patch {pid} has id {ids[pid]}"
    if n_vertices != n + n_patches:
        return (f"{n_vertices} vertices for {n} ground vertices and "
                f"{n_patches} patches")
    ground_of = [*range(n), *(p.vertex for p in patches)]
    if over != ground_of:
        v = _first_diff(over, ground_of)
        initial = "initial " if v < n else ""
        return f"{initial}vertex {v} is not over ground vertex {ground_of[v]}"
    places = ground.vertices.tolist()
    for v, (g, row) in enumerate(zip(ground_of, mesh.vertices)):
        if list(row[:-1]) != places[g]:
            return f"vertex {v} is not at the place of its ground vertex {g}"
    times = [row[-1] for row in mesh.vertices]
    start = ground.initial_times.tolist()
    for v in range(n):
        if times[v] != start[v]:
            return (f"initial vertex {v} is not at the initial time of "
                    f"ground vertex {v}")
    bases, inflows, front = _replay(mesh, pids)
    for end, stored, replayed in (
            ("base", [p.base for p in patches], [bases[p] for p in pids]),
            ("apex", [p.apex for p in patches], [n + p for p in pids])):
        if stored != replayed:
            pid = _first_diff(stored, replayed)
            return (f"patch {pid}'s {end} is vertex {stored[pid]}, not "
                    f"{replayed[pid]}")
    sizes = [len(inflows[p]) for p in pids]
    for p in patches:
        if len(p.elements) != sizes[p.id]:
            return (f"patch {p.id} has {len(p.elements)} elements for the "
                    f"{sizes[p.id]} elements of its vertex's star")
    m = sum(sizes)
    if len(mesh.elements) != m or len(mesh.element_patch) != m:
        return (f"the patches list {m} elements and element_patch marks "
                f"{len(mesh.element_patch)}, of {len(mesh.elements)} elements")
    listed = list(chain.from_iterable(p.elements for p in patches))
    marks = list(chain.from_iterable(map(repeat, pids, sizes)))
    tents = [(n + pid,) + facet for pid in pids for _, facet in inflows[pid]]
    for j in range(m):
        if (listed[j], mesh.element_patch[j], tuple(mesh.elements[j])) != (
                j, marks[j], tents[j]):
            pid = marks[j]
            k = j - sum(sizes[:pid])
            return (f"element {j} is not patch {pid}'s element {k}: listed "
                    f"there, marked as in patch {pid}, and its apex over "
                    f"inflow facet {k}")
    for pid in pids:
        if not times[n + pid] > times[bases[pid]]:
            return f"patch {pid}'s apex time is not above its base time"
    stored = [len(mesh.initial_facets), len(mesh.frontier),
              *chain.from_iterable((len(p.inflow), len(p.outflow))
                                   for p in patches)]
    wanted = [n_el, n_el, *chain.from_iterable((s, s) for s in sizes)]
    for g, (got, want) in enumerate(zip(stored, wanted)):
        if got != want and g < 2:
            return (f"{got} {('initial', 'frontier')[g]} facets for {n_el} "
                    f"ground elements")
        if got != want:
            return (f"patch {g // 2 - 1} has {got} "
                    f"{('inflow', 'outflow')[g % 2]} facets for {want} "
                    f"elements")
    for e, f in enumerate(mesh.initial_facets):
        if f != (e, tuple(ground.elements[e].tolist()), -1):
            return (f"initial facet {e} is not ground element {e} over its "
                    f"initial vertices")
    for p in patches:
        for k, (f, (e, facet)) in enumerate(zip(p.inflow, inflows[p.id])):
            if f != (e, facet, max(max(facet) - n, -1)):
                return (f"sweep failed at patch {p.id}: its inflow facet {k} "
                        f"is not the last facet made on ground element {e}")
    for p in patches:
        for k, (f, (e, li), (_, facet)) in enumerate(
                zip(p.outflow, ground.stars[p.vertex], inflows[p.id])):
            top = facet[:li] + (p.apex,) + facet[li + 1:]
            if f != (e, top, p.id):
                return (f"patch {p.id}'s outflow facet {k} is not its inflow "
                        f"facet {k} with the base replaced by the apex, made "
                        f"by patch {p.id}")
    for e, f in enumerate(mesh.frontier):
        if f != (e, front[e], max(max(front[e]) - n, -1)):
            return (f"frontier facet {e} is not the last facet made on "
                    f"ground element {e}")
    top = max(times[n:], default=-math.inf)
    for e, facet in enumerate(front):
        if not all(times[v] >= top for v in facet):
            return f"frontier facet {e} is below the last apex time"
    return None


def causality(mesh) -> CheckResult:
    fault = replay_fault(mesh)
    if fault:
        return CheckResult("causality", False, fault)
    injected = "no dependent pair to inject"
    n = mesh.ground.n_vertices
    pids = list(range(len(mesh.patches)))
    for j, element in zip(mesh.element_patch, mesh.elements):
        if max(element[1:]) >= n:
            i = max(element[1:]) - n
            order = list(pids)
            order[i], order[j] = order[j], order[i]
            _, inflows, _ = _replay(mesh, order)
            swapped = [(n + pid,) + facet for pid in pids
                       for _, facet in inflows[pid]]
            if swapped == [tuple(element) for element in mesh.elements]:
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


def mesh_mismatch(trace, mesh) -> Optional[str]:
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
