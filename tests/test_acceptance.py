"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The random-mesh pool is built once per session and shared by the
criteria that quantify over "every random run".
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tentpitch import (
    Front,
    GroundMesh,
    PitchConfig,
    precompute,
    run,
    stats,
)
from tentpitch.pitcher import _star_constraints, compute_lift
from tentpitch.synthetic import (
    delaunay_mesh,
    jittered_grid_mesh,
    obtuse_strip_mesh,
    random_tet_mesh,
    sweepline_mesh,
    two_scale_mesh,
)
from tentpitch.verifier import (
    _oracle_max_lifts,
    check_causality,
    check_cone_facets,
)

from conftest import face_caps
from reference_geometry import gradient, single_triangle_budget

EPS = 0.1
TARGET = 5.0
TOL = 1e-9


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@dataclass
class PoolEntry:
    label: str
    triangles: int
    cone_ok: bool
    worst_cone_ratio: float
    causality_ok: bool
    injection_seen: bool
    patches: int
    patch_budget: float
    elements: int
    element_budget: float
    floor_ok: bool
    worst_floor_margin: float


def _pool_meshes():
    """100 planar triangulations of 20-500 triangles, with forced obtuse
    angles up to 179 degrees."""
    rng = np.random.default_rng(1234)
    for i in range(88):
        n_tris = int(round(math.exp(rng.uniform(math.log(24), math.log(460)))))
        while True:
            mesh = delaunay_mesh(max(14, int(n_tris / 1.8)), rng)
            if 20 <= mesh.n_elements <= 500:
                break
        yield f"delaunay-{i}", mesh
    for i in range(6):
        while True:
            mesh = sweepline_mesh(int(rng.integers(16, 28)), rng,
                                  min_altitude=3e-3)
            if 20 <= mesh.n_elements <= 500:
                break
        yield f"sweepline-{i}", mesh
    for angle in (150.0, 160.0, 170.0, 175.0, 178.0, 179.0):
        yield f"strip-{angle:g}", obtuse_strip_mesh(11, angle)


@pytest.fixture(scope="session")
def pool():
    entries = []
    start = time.perf_counter()
    for label, ground in _pool_meshes():
        cons = precompute(ground, EPS)
        cfg = PitchConfig(target_time=TARGET, epsilon=EPS)
        mesh, trace = run(ground, cfg, constants=cons)
        cone = check_cone_facets(mesh, ground, TOL)
        causal = check_causality(mesh)
        floor_ok = True
        worst = math.inf
        for r in trace.lifts:
            if r.new_time >= TARGET:
                continue
            margin = (r.new_time - r.old_time) / (EPS * cons.omega[r.vertex])
            worst = min(worst, margin)
            if r.new_time - r.old_time < EPS * cons.omega[r.vertex] * (1 - TOL):
                floor_ok = False
        entries.append(
            PoolEntry(
                label=label,
                triangles=ground.n_elements,
                cone_ok=cone.passed,
                worst_cone_ratio=cone.details["worst_ratio"],
                causality_ok=causal.passed,
                injection_seen="injected swap" in causal.message,
                patches=len(trace.lifts),
                patch_budget=(TARGET / EPS) * cons.inverse_omega_sum,
                elements=len(mesh.elements),
                element_budget=(6 * TARGET / EPS) * cons.inverse_omega_sum,
                floor_ok=floor_ok,
                worst_floor_margin=worst,
            )
        )
    elapsed = time.perf_counter() - start
    return entries, elapsed


def test_criterion_01_cone_suite(pool):
    entries, elapsed = pool
    sizes = [e.triangles for e in entries]
    assert len(entries) >= 100
    assert min(sizes) >= 20 and max(sizes) <= 500
    worst = max(e.worst_cone_ratio for e in entries)
    ok = all(e.cone_ok for e in entries) and elapsed < 60.0
    report(
        1, ok,
        f"{len(entries)} meshes ({min(sizes)}-{max(sizes)} triangles, incl. "
        f"179-degree strips), worst facet slope/cap {worst:.12f}, "
        f"{elapsed:.1f}s total",
    )


def test_criterion_02_obtuse_termination():
    rng = np.random.default_rng(77)
    completed = 0
    for i in range(10):
        ground = sweepline_mesh(int(rng.integers(14, 30)), rng,
                                min_altitude=1e-3)
        mesh, trace = run(ground, PitchConfig(target_time=1.0, epsilon=EPS))
        final = [mesh.vertices[mesh.current_vertex[v]][-1]
                 for v in range(ground.n_vertices)]
        assert all(t == 1.0 for t in final)
        completed += 1
    report(
        2, completed == 10,
        f"{completed}/10 sweep-line triangulations completed to target; "
        "stall detector never fired",
    )


def test_criterion_03_single_triangle_budget():
    ground = GroundMesh(2, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])
    mesh, _ = run(ground, PitchConfig(target_time=10.0, epsilon=0.1))
    budget = single_triangle_budget(ground, 10.0, 0.1)
    ok = len(mesh.elements) <= budget
    report(
        3, ok,
        f"single right triangle: {len(mesh.elements)} tetrahedra "
        f"<= budget {budget:.1f}",
    )


def test_criterion_04_patch_and_element_budgets(pool):
    entries, _ = pool
    ok = all(
        e.patches <= e.patch_budget and e.elements <= e.element_budget
        for e in entries
    )
    tightest = min(e.patch_budget / max(e.patches, 1) for e in entries)
    report(
        4, ok,
        f"all {len(entries)} runs within patch and element budgets "
        f"(tightest patch budget headroom {tightest:.1f}x)",
    )


def test_criterion_05_per_lift_progress(pool):
    entries, _ = pool
    ok = all(e.floor_ok for e in entries)
    worst = min(e.worst_floor_margin for e in entries)
    report(
        5, ok,
        f"every non-clamped lift advanced >= eps*omega*(1-1e-9); "
        f"worst margin {worst:.4f}x over all traces",
    )


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(4321)
    # (a) closed-form equivalence on 10^4 planar instances: triangle i of
    # one mesh, its vertex 3i lifted over the edge (3i+1, 3i+2)
    coords, times, wants = [], [], []
    while len(wants) < 10_000:
        tri = rng.normal(scale=2.0, size=(3, 2))
        e1 = tri[2] - tri[1]
        area2 = abs(e1[0] * (tri[0] - tri[1])[1]
                    - e1[1] * (tri[0] - tri[1])[0])
        L = float(np.linalg.norm(e1))
        if area2 < 1e-3 or L < 1e-3:
            continue
        tq = float(rng.normal())
        tr = tq + float(rng.uniform(-0.95, 0.95)) * L
        w_p = area2 / L
        wants.append(tq + (tr - tq) / L**2 * float((tri[0] - tri[1]) @ e1)
                     + math.sqrt(L**2 - (tr - tq) ** 2) / L * w_p)
        coords.append(tri)
        times += [0.0, tq, tr]
    ground = GroundMesh(2, np.concatenate(coords),
                        np.arange(3 * len(wants)).reshape(-1, 3))
    front = Front(ground, precompute(ground, EPS), TARGET)
    front.times = times  # the instances need not form a valid front
    worst_a = 0.0
    for i, want in enumerate(wants):
        got = next(value for value, kind, _, _
                   in _star_constraints(front, 3 * i, TOL) if kind == "cone")
        worst_a = max(worst_a, abs(got - want) / max(1.0, abs(want)))
    ok_a = worst_a <= 1e-9

    # (b) bisection feasibility oracle on 10^3 states drawn from live runs
    worst_b = 0.0
    checked = 0

    def sample_states(ground, target, budget):
        nonlocal worst_b, checked
        cfg = PitchConfig(target_time=target, epsilon=EPS)
        cons = precompute(ground, EPS)
        front = Front(ground, cons, target)
        while (v := front.next_vertex(cfg.strategy)) is not None:
            bound = compute_lift(v, front)
            if checked < budget:
                times = np.array(front.times)
                oracle = _oracle_max_lifts(ground, np.array([v]),
                                           lambda u, s: times[u], EPS)[0][0]
                scale = abs(bound.value) + cons.omega[v]
                if bound.kind == "target":
                    err = max(0.0, (bound.value - oracle) / scale)
                else:
                    err = abs(oracle - bound.value) / scale
                worst_b = max(worst_b, err)
                checked += 1
            front.apply_lift(v, bound.value)

    total = 0
    seeds = iter(range(1000))
    while total < 150:
        g = GroundMesh(1, [[0.0], [0.8], [2.1], [3.0]],
                       [[0, 1], [1, 2], [2, 3]])
        before = checked
        sample_states(g, 12.0 + total * 0.1, budget=150)
        total += checked - before
    while total < 750:
        g = delaunay_mesh(20, np.random.default_rng(next(seeds)))
        before = checked
        sample_states(g, 2.0, budget=750)
        total += checked - before
    while total < 1000:
        g = random_tet_mesh(9, np.random.default_rng(next(seeds)))
        before = checked
        sample_states(g, 0.6, budget=1000)
        total += checked - before
    ok_b = worst_b <= 1e-7
    report(
        6, ok_a and ok_b,
        f"closed form: worst rel err {worst_a:.2e} over 10^4 instances; "
        f"bisection oracle: worst rel err {worst_b:.2e} over {checked} "
        "instances (d=1,2,3)",
    )


def test_criterion_07_epsilon_sensitivity():
    ground = jittered_grid_mesh(10, 10, seed=5)
    assert ground.n_elements == 200
    counts = {}
    for eps in (0.01, 0.1, 1.0 / 3.0):
        mesh, _ = run(ground, PitchConfig(target_time=6.0, epsilon=eps))
        counts[eps] = len(mesh.elements)
    values = list(counts.values())
    spread = (max(values) - min(values)) / min(values)
    ok = spread <= 0.25
    report(
        7, ok,
        f"element counts {values} for eps=0.01/0.1/0.333 "
        f"(spread {100 * spread:.1f}% <= 25%)",
    )


def test_criterion_08_grading():
    ground = two_scale_mesh(8.0)
    mesh, _ = run(ground, PitchConfig(target_time=1.0, epsilon=EPS))
    st = stats(mesh)
    ok = st.duration_ratio >= 4.0
    report(
        8, ok,
        f"two-scale mesh (8x diameters): duration ratio "
        f"{st.duration_ratio:.1f} >= 4",
    )


def test_criterion_09_causality(pool):
    entries, _ = pool
    ok = all(e.causality_ok for e in entries)
    injected = sum(e.injection_seen for e in entries)
    report(
        9, ok,
        f"causal sweep succeeded on all {len(entries)} meshes; "
        f"injected patch-order swaps detected on {injected} of them",
    )


def test_criterion_10_throughput():
    ground = jittered_grid_mesh(25, 20, seed=9)
    assert ground.n_elements == 1000
    mesh, _ = run(ground, PitchConfig(target_time=15.0, epsilon=EPS))
    st = stats(mesh)
    rate = st.elements_per_second
    # soft target: reported, not asserted
    print(
        f"[criterion 10] REPORT: {st.elements} elements in "
        f"{st.build_seconds:.2f}s = {rate:.0f} elements/s "
        f"(soft target 50,000/s)"
    )


def test_criterion_11_d3_suite():
    worst_face = 0.0
    for seed in range(10):
        ground = random_tet_mesh(9, np.random.default_rng(seed + 100))
        cons = precompute(ground, EPS)
        caps = face_caps(cons)
        cfg = PitchConfig(target_time=0.5, epsilon=EPS)
        mesh, trace = run(ground, cfg, constants=cons)
        assert check_cone_facets(mesh, ground, TOL).passed
        # replay: every lift must respect all face gradient caps
        times = list(trace.initial_times)
        for r in trace.lifts:
            times[r.vertex] = r.new_time
            for e, _ in ground.stars[r.vertex]:
                ids = [int(x) for x in ground.elements[e]]
                cap = 1.0 / ground.speeds[e]
                for l in range(4):
                    face = [ids[x] for x in range(4) if x != l]
                    coords = ground.vertices[face]
                    g = gradient(coords, [times[u] for u in face])
                    ratio = float(np.linalg.norm(g)) / (caps[e][l] * cap)
                    worst_face = max(worst_face, ratio)
                    assert ratio <= 1 + TOL
        final = [mesh.vertices[mesh.current_vertex[v]][-1]
                 for v in range(ground.n_vertices)]
        assert all(t == 0.5 for t in final)
    report(
        11, worst_face <= 1 + TOL,
        f"10 tetrahedral meshes terminated; all face gradient caps held "
        f"(worst face slope/cap {worst_face:.12f})",
    )
