"""Object-based mesh checks, kept as the reference for the array checks in
tentpitch.verifier: the cone gather, element ties and dict-keyed causal
sweep that walk Facet and Patch objects, plus the stored-facet ties, the
vertex coordinates, the initial front and the tents' heights written as
plain loops.  The array checks must give the same results.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from tentpitch.verifier import CheckResult, _facet_slopes


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
    slopes = _facet_slopes(ground, gels, st_times[verts])
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


def element_fault(mesh) -> Optional[str]:
    patches, over, n = mesh.patches, mesh.vertex_ground, len(mesh.elements)
    if len(over) != len(mesh.vertices):
        return f"{len(over)} vertex_ground entries for {len(mesh.vertices)} vertices"
    for v, g in enumerate(over[:mesh.ground.n_vertices]):
        if g != v:
            return f"initial vertex {v} is not over ground vertex {v}"
    for v, (g, coords) in enumerate(zip(over, mesh.vertices)):
        if list(coords[:-1]) != mesh.ground.vertices[g].tolist():
            return f"vertex {v} is not at the place of its ground vertex {g}"
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
    times = [v[-1] for v in mesh.vertices]
    low = [not times[p.apex] > times[p.base] for p in patches]
    if any(low):
        return f"patch {low.index(True)}'s apex time is not above its base time"
    return None


def derived_fault(mesh) -> Optional[str]:
    """The initial and outflow facets against those the elements give."""
    ground = mesh.ground
    if len(mesh.initial_facets) != ground.n_elements:
        return (f"{len(mesh.initial_facets)} initial facets for "
                f"{ground.n_elements} ground elements")
    for e, f in enumerate(mesh.initial_facets):
        if f != (e, tuple(ground.elements[e].tolist()), -1):
            return (f"initial facet {e} is not ground element {e} over its "
                    f"initial vertices")
    for p in mesh.patches:
        if len(p.outflow) != len(p.inflow):
            return (f"patch {p.id} has {len(p.outflow)} outflow facets for "
                    f"{len(p.inflow)} inflow facets")
    for p in mesh.patches:
        for k, ((_, slot), f, out) in enumerate(
                zip(ground.stars[p.vertex], p.inflow, p.outflow)):
            top = list(f.vertices)
            held = top[slot] == p.base
            top[slot] = p.apex
            if not held or out != (f.ground_element, tuple(top), p.id):
                return (f"patch {p.id}'s outflow facet {k} is not its inflow "
                        f"facet {k} with the base replaced by the apex, made "
                        f"by patch {p.id}")
    return None


def link_fault(mesh) -> Optional[str]:
    """The inflow producers and the frontier against the sweep."""
    live = dict(enumerate(mesh.initial_facets))
    for p in mesh.patches:
        for k, (f, out) in enumerate(zip(p.inflow, p.outflow)):
            made = live[f.ground_element].producer
            if f.producer != made:
                return (f"patch {p.id}'s inflow facet {k} has producer "
                        f"{f.producer}, not {made}")
            live[f.ground_element] = out
    n = mesh.ground.n_elements
    if len(mesh.frontier) != n:
        return f"{len(mesh.frontier)} frontier facets for {n} ground elements"
    for e, f in enumerate(mesh.frontier):
        if f != live[e]:
            return (f"frontier facet {e} is not the last facet made on "
                    f"ground element {e}")
    return None


def causality(mesh) -> CheckResult:
    fault = element_fault(mesh) or derived_fault(mesh)
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
    fault = link_fault(mesh)
    if fault:
        return CheckResult("causality", False, fault)
    return CheckResult(
        "causality", True,
        f"sweep of {len(mesh.patches)} patches succeeded; {injected}",
    )


def mesh_mismatch(trace, mesh) -> Optional[str]:
    if len(trace.lifts) != len(mesh.patches):
        return (f"trace has {len(trace.lifts)} lifts for a mesh of "
                f"{len(mesh.patches)} patches")
    n = len(trace.initial_times)
    if len(mesh.vertices) < n or len(mesh.vertex_ground) < n:
        return f"mesh has fewer vertices than the trace's {n} initial times"
    for v, t in enumerate(trace.initial_times):
        if mesh.vertex_ground[v] != v or mesh.vertices[v][-1] != t:
            return (f"mesh vertex {v} is not ground vertex {v} at its "
                    f"initial time in the trace")
    made = [(r.patch, r.vertex, r.new_time) for r in trace.lifts]
    patches = [(p.id, p.vertex, mesh.vertices[p.apex][-1])
               for p in mesh.patches]
    if made != patches:
        i = _first_diff(made, patches)
        return f"lift {i} did not make patch {patches[i][0]} of the mesh"
    return None
