"""Independent re-checking of a finished space-time mesh and its trace.

The checks deliberately avoid the pitcher's precomputed constraint tables:
facet slopes are re-derived from raw coordinates (batched Gram solves),
the liftability replay rebuilds its own per-element scalars, and a random
sample of lifts is re-derived from scratch with a bisection feasibility
oracle built on the geometry primitives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    bad = np.nonzero(ratio > 1.0 + tol)[0]
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


def check_progress_trace(trace: RunTrace, ground: GroundMesh,
                         tol: float = 1e-9) -> CheckResult:
    """Per-lift advance floor plus the worst-case patch and element budgets.

    Every non-clamped lift must advance its vertex by at least
    epsilon * floor(v), where floor(v) is the speed-scaled minimum altitude
    of v (for d = 3 additionally min over the capped triangular faces).
    Total patches are bounded by (T/eps) * sum(1/omega) and, for d = 2,
    total elements by six times that.
    """
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


def check_causality(mesh: SpaceTimeMesh) -> CheckResult:
    """Causal sweep must succeed; a self-test swaps two dependent patches
    and asserts the sweep then fails."""
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


# -- liftability replay ------------------------------------------------------


def _element_scalars(ground: GroundMesh):
    """Per-(element, vertex) static scalars for the liftability ceiling,
    derived directly from raw coordinates (batched hull feet)."""
    d = ground.dim
    X = ground.vertices[ground.elements]
    opp = geometry.facet_index(d)
    others = ground.elements[:, opp].tolist()
    F = X[:, opp]
    if d == 1:
        w = np.linalg.norm(F[:, :, 0] - X, axis=-1).tolist()
        return [[(o[0], wi) for o, wi in zip(oe, we)]
                for oe, we in zip(others, w)]
    foot, _ = geometry.hull_feet(X, F)
    E = geometry.edge_bases(F)
    ginv = np.linalg.inv(E @ np.swapaxes(E, -1, -2))
    b = np.einsum("...ij,...j->...i", E, foot - F[..., 0, :])
    w = np.linalg.norm(X - foot, axis=-1).tolist()
    return [
        [(tuple(oe[i]), ginv[e, i], b[e, i], we[i]) for i in range(d + 1)]
        for e, (oe, we) in enumerate(zip(others, w))
    ]


def _liftability_ceiling(rec, times, cap, dim):
    """Cone ceiling for the recorded vertex over its fixed opposite facet."""
    if dim == 1:
        other, w = rec
        return times[other] + w * cap
    ids, ginv, b, w = rec
    t0 = times[ids[0]]
    dt = np.array([times[u] - t0 for u in ids[1:]])
    y = ginv @ dt
    slope2 = float(y @ dt)
    rad = cap * cap - slope2
    if rad < 0:
        return -math.inf
    return t0 + float(y @ b) + w * math.sqrt(rad)


def check_front_snapshots(trace: RunTrace, ground: GroundMesh,
                          tol: float = 1e-9) -> CheckResult:
    """Replay the run; after every lift, each touched element's lowest
    vertex must still be liftable above its middle vertex within the cone
    constraint.  This is the invariant that guarantees the front never
    converges short of the target."""
    times = list(trace.initial_times)
    table = _element_scalars(ground)
    d = ground.dim
    worst = math.inf
    for idx, r in enumerate(trace.lifts):
        if times[r.vertex] != r.old_time:
            return CheckResult(
                "front_snapshots", False,
                f"trace inconsistent at lift {idx}: vertex {r.vertex} was at "
                f"{times[r.vertex]}, trace says {r.old_time}",
            )
        times[r.vertex] = r.new_time
        for e, _ in ground.stars[r.vertex]:
            ids = [int(x) for x in ground.elements[e]]
            order = sorted(range(len(ids)), key=lambda i: times[ids[i]])
            low, mid = order[0], order[1]
            cap = ground.slope_cap(e, times[ids[low]])
            ceiling = _liftability_ceiling(table[e][low], times, cap, d)
            margin = ceiling - times[ids[mid]]
            worst = min(worst, margin)
            if margin < -tol * (1.0 + abs(times[ids[mid]])):
                return CheckResult(
                    "front_snapshots", False,
                    f"after lift {idx} (vertex {r.vertex}), element {e} "
                    f"lowest vertex {ids[low]} cannot clear the middle "
                    f"vertex (margin {margin:g})",
                    details={"lift": idx, "element": e, "margin": margin},
                )
    unfinished = [v for v, t in enumerate(times) if t != trace.target_time]
    if unfinished and trace.target_time > 0:
        return CheckResult(
            "front_snapshots", False,
            f"replay ended with {len(unfinished)} vertices not at the "
            f"target time (first: {unfinished[0]} at {times[unfinished[0]]})",
        )
    return CheckResult(
        "front_snapshots", True,
        f"replayed {len(trace.lifts)} lifts, worst liftability margin "
        f"{worst:.3g}" if trace.lifts else "empty trace",
    )


# -- sampled bisection oracle ------------------------------------------------


def _oracle_static(ground: GroundMesh, v: int):
    """Time-independent data for the feasibility predicate: altitudes via
    direct projection, face caps via clearance ratios and the gradient
    operator of each star element and face, all re-derived from the
    geometry primitives."""
    d = ground.dim
    entries = []
    for e, li in ground.stars[v]:
        ids = ground.elements[e]
        coords = ground.vertices[ids]
        w = geometry.altitude_distance(SimplexGeometry(coords), li)
        faces = []
        if d == 3:
            for l in range(4):
                if l == li:
                    continue
                face_local = [x for x in range(4) if x != l]
                fs = SimplexGeometry(coords[face_local])
                kappa = geometry.clearance_ratio(coords[l], fs)
                pos = face_local.index(li)
                wf = geometry.altitude_distance(fs, pos)
                faces.append((face_local, pos, kappa, wf,
                              geometry.gradient_operators(fs.vertices)))
        entries.append((e, li, ids, w, geometry.gradient_operators(coords),
                        faces))
    return entries


def _oracle_feasible(ground: GroundMesh, static, times, v: int, t_new: float,
                     epsilon: float, slack: float = 1e-12) -> bool:
    d = ground.dim
    pf = 1.0 - epsilon
    for e, li, ids, w, grad_op, faces in static:
        ts = [times[u] for u in ids]
        ts[li] = t_new
        cap = ground.slope_cap(e, times[v])
        grad = grad_op @ np.subtract(ts[1:], ts[0])
        if float(np.linalg.norm(grad)) > cap * (1.0 + slack):
            return False
        if d == 2:
            top = max(t for i, t in enumerate(ts) if i != li)
            if t_new > top + pf * w * cap * (1.0 + slack) + slack:
                return False
        elif d == 3:
            for face_local, pos, sigma, wf, face_op in faces:
                kappa = pf * sigma
                fts = [ts[x] for x in face_local]
                fgrad = face_op @ np.subtract(fts[1:], fts[0])
                if float(np.linalg.norm(fgrad)) > kappa * cap * (1.0 + slack):
                    return False
                top = max(t for i, t in enumerate(fts) if i != pos)
                if t_new > top + pf * wf * kappa * cap * (1.0 + slack) + slack:
                    return False
    return True


def oracle_max_lift(ground: GroundMesh, times, v: int, epsilon: float,
                    iters: int = 60) -> float:
    """Largest admissible lift found by bisection on the feasibility
    predicate; shares only the geometry primitives with the pitcher."""
    static = _oracle_static(ground, v)
    lo = times[v]
    scale = max(w * ground.slope_cap(e, times[v])
                for e, _, _, w, _, _ in static)
    step = max(scale, 1e-12)
    hi = lo + step
    grow = 0
    while (
        _oracle_feasible(ground, static, times, v, hi, epsilon)
        and grow < 60
    ):
        lo = hi
        hi = lo + step
        step *= 2.0
        grow += 1
    for _ in range(iters):
        midpt = 0.5 * (lo + hi)
        if _oracle_feasible(ground, static, times, v, midpt, epsilon):
            lo = midpt
        else:
            hi = midpt
    return lo


def check_lift_bounds_sampled(trace: RunTrace, ground: GroundMesh,
                              fraction: float = 0.01, seed: int = 0,
                              rel_tol: float = 1e-7) -> CheckResult:
    """Re-derive a random sample of lift bounds by bisection and compare.

    Clamped lifts only need the oracle to allow reaching the target; all
    others must match the recorded new time to rel_tol.
    """
    n = len(trace.lifts)
    if n == 0:
        return CheckResult("lift_bounds_sampled", True, "empty trace")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    sample = set(rng.choice(n, size=min(k, n), replace=False).tolist())
    times = list(trace.initial_times)
    worst = 0.0
    offenders = []
    cons = precompute(ground, trace.epsilon)
    for idx, r in enumerate(trace.lifts):
        if idx in sample:
            oracle = oracle_max_lift(ground, times, r.vertex, trace.epsilon)
            scale = abs(r.new_time) + cons.omega[r.vertex]
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
        times[r.vertex] = r.new_time
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
    trace.  Either may be omitted.
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
        report.checks.append(check_progress_trace(trace, ground, tol))
        if snapshots:
            report.checks.append(check_front_snapshots(trace, ground, tol))
        if sample_fraction > 0:
            report.checks.append(
                check_lift_bounds_sampled(trace, ground, sample_fraction, seed)
            )
    return report
