import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentpitch import (
    Front,
    GreedyLowest,
    GroundMesh,
    MISPhases,
    PitchConfig,
    StallError,
    precompute,
    run,
)
from tentpitch.front import _star_constraints
from tentpitch.pitcher import compute_lift
from tentpitch.verifier import check_cone_facets

from conftest import (
    alternating_speed_grid,
    element_rows,
    face_caps,
    final_times,
    random_rigid_motion,
    with_initial_times,
)
from reference_geometry import gradient, single_triangle_budget


def cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def cone_oracle(coords, times, lifted, cap=1.0, lo=None, hi=None, iters=200):
    """Bisection for the largest lifted time keeping the element's
    time-gradient norm within cap."""
    times = list(times)
    lo = times[lifted] if lo is None else lo

    def ok(tv):
        ts = list(times)
        ts[lifted] = tv
        return np.linalg.norm(gradient(coords, ts)) <= cap * (1 + 1e-12)

    assert ok(lo)
    if hi is None:
        hi = lo + 1.0
        while ok(hi):
            lo, hi = hi, hi + (hi - lo) * 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def eq_closed_form(p, q, r, tq, tr):
    """The planar cone inequality in its direct closed form (unit speed)."""
    p, q, r = map(np.asarray, (p, q, r))
    L = np.linalg.norm(r - q)
    area2 = abs(cross2(r - q, p - q))  # twice the triangle area
    w_p = area2 / L
    return (
        tq
        + (tr - tq) / L**2 * float((p - q) @ (r - q))
        + math.sqrt(L**2 - (tr - tq) ** 2) / L * w_p
    )


def constraint(front, v, e, kind="cone", face=None, tol=1e-9):
    """The one constraint on lifting v that _star_constraints yields with
    this kind on element e, for the whole element (face None) or for the
    d = 3 face with these vertices."""
    found = [
        value for value, k, el, f in _star_constraints(front, v, tol)
        if (k, el) == (kind, e)
        and (f is None if face is None else f is not None and set(f) == set(face))
    ]
    assert len(found) == 1
    return found[0]


def front_at(mesh, times, epsilon=0.1):
    """A front over mesh at the given times, which need not satisfy the
    front invariants (the constraints read them as they are)."""
    front = Front(mesh, precompute(mesh, epsilon), 10.0)
    front.times = list(times)
    return front


class TestPitchConfig:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            PitchConfig(target_time=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            PitchConfig(target_time=1.0, epsilon=0.7)
        PitchConfig(target_time=1.0, epsilon=0.5)

    def test_zero_target_allowed(self):
        PitchConfig(target_time=0.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            PitchConfig(target_time=-1.0)


class TestConeBound:
    def test_right_triangle_tilted_edge(self, right_triangle):
        front = Front(with_initial_times(right_triangle, [0.0, 0.0, 0.3]),
                      precompute(right_triangle), 10.0)
        got = constraint(front, 0, 0)
        oracle = cone_oracle(right_triangle.vertices, [0.0, 0.0, 0.3], 0)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(math.sqrt(0.91), rel=1e-12)

    def test_flat_front_gives_altitude(self, right_triangle):
        front = Front(right_triangle, precompute(right_triangle), 10.0)
        assert constraint(front, 0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_speed_halves_admissible_slope(self, equilateral):
        mesh = GroundMesh(2, equilateral.vertices, equilateral.elements,
                          speeds=[2.0])
        front = Front(mesh, precompute(mesh), 10.0)
        got = constraint(front, 0, 0)
        oracle = cone_oracle(mesh.vertices, [0.0, 0.0, 0.0], 0, cap=0.5)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.5 * math.sqrt(3) / 2, rel=1e-12)

    def test_matches_closed_form_on_random_triangles(self, rng):
        for _ in range(500):
            coords = rng.normal(scale=2.0, size=(3, 2))
            L = np.linalg.norm(coords[2] - coords[1])
            area2 = abs(cross2(coords[2] - coords[1], coords[0] - coords[1]))
            if area2 < 1e-3:
                continue
            tq = rng.normal()
            tr = tq + rng.uniform(-0.95, 0.95) * L
            front = front_at(GroundMesh(2, coords, [[0, 1, 2]]), [0.0, tq, tr])
            got = constraint(front, 0, 0)
            want = eq_closed_form(coords[0], coords[1], coords[2], tq, tr)
            assert got == pytest.approx(want, rel=1e-9)

    def test_facet_ordering_symmetry(self, rng):
        # the triangle listed with its fixed pair in either order describes
        # the same constraint
        for _ in range(300):
            coords = rng.normal(scale=2.0, size=(3, 2))
            p, a, b = coords
            if abs(cross2(b - a, p - a)) < 1e-3:
                continue
            ta = rng.normal()
            tb = ta + rng.uniform(-0.9, 0.9) * np.linalg.norm(b - a)
            one, two = (
                constraint(front_at(GroundMesh(2, coords, [order]),
                                    [0.0, ta, tb]), 0, 0)
                for order in ([0, 1, 2], [0, 2, 1])
            )
            assert one == pytest.approx(two, rel=1e-12, abs=1e-12)


class TestProgressBound:
    def test_direct_substitution(self, right_triangle):
        front = Front(with_initial_times(right_triangle, [0.0, 0.0, 0.3]),
                      precompute(right_triangle, 0.1), 10.0)
        # top neighbor at 0.3 plus (1-eps) * altitude 1
        assert constraint(front, 0, 0, "progress") == pytest.approx(1.2)

    def test_flat_equilateral(self, equilateral):
        front = Front(equilateral, precompute(equilateral, 0.5), 10.0)
        assert constraint(front, 0, 0, "progress") == pytest.approx(
            0.5 * math.sqrt(3) / 2
        )

    def test_epsilon_zero_rejected_at_config(self):
        with pytest.raises(ValueError):
            PitchConfig(target_time=1.0, epsilon=0.0)


class TestFaceCapBound:
    def test_cap_one_reduces_to_plain_cone(self, regular_tet):
        # a face whose cap works out to 1 gives the cone ceiling of the
        # face triangle meshed on its own
        face = (0, 1, 2)
        kappa = face_caps(precompute(regular_tet, 0.1))[0][3]  # face opposite 3
        tet = GroundMesh(3, regular_tet.vertices, regular_tet.elements,
                         speeds=[kappa])
        times = [0.0, 0.1, -0.2, 0.05]
        got = constraint(front_at(tet, times), 0, 0, face=face)
        flat2 = GroundMesh(2, regular_tet.vertices[list(face), :2], [[0, 1, 2]])
        want = constraint(front_at(flat2, times[:3]), 0, 0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_regular_tet_flat_cap_scales_altitude(self, regular_tet):
        # full-element bound with slope cap kappa equals kappa * altitude
        kappa = 0.8
        mesh = GroundMesh(3, regular_tet.vertices, regular_tet.elements,
                          speeds=[1.0 / kappa])
        front = Front(mesh, precompute(mesh), 10.0)
        got = constraint(front, 0, 0)
        oracle = cone_oracle(mesh.vertices, [0.0] * 4, 0, cap=kappa)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(kappa * math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_face_bound_flat_front(self, regular_tet):
        # sigma = 1 for a regular tet, so the face cap is (1-eps) and the
        # flat-front face bound is 0.9 * the in-face altitude sqrt(3)/2
        front = Front(regular_tet, precompute(regular_tet, 0.1), 10.0)
        got = constraint(front, 0, 0, face=(0, 1, 2))
        face_coords = regular_tet.vertices[[0, 1, 2]]
        oracle = cone_oracle(face_coords, [0.0, 0.0, 0.0], 0, cap=0.9)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.9 * math.sqrt(3) / 2, rel=1e-12)

    def test_face_progress_flat(self, regular_tet):
        front = Front(regular_tet, precompute(regular_tet, 0.1), 10.0)
        got = constraint(front, 0, 0, "progress", face=(0, 1, 2))
        assert got == pytest.approx(0.9 * 0.9 * math.sqrt(3) / 2, rel=1e-12)


class TestStarConstraints:
    @pytest.mark.parametrize("d, per_element", [
        (1, ["cone"]),
        (2, ["cone", "progress"]),
        (3, ["cone"] + ["cone", "progress"] * 3),
    ])
    def test_order_within_and_across_elements(self, d, per_element, rng):
        from synthetic_meshes import delaunay_mesh, random_tet_mesh

        mesh = {1: lambda: GroundMesh(1, [[0.0], [1.0], [2.5]],
                                      [[0, 1], [1, 2]]),
                2: lambda: delaunay_mesh(12, rng),
                3: lambda: random_tet_mesh(9, rng)}[d]()
        front = Front(mesh, precompute(mesh), 10.0)
        v = max(range(mesh.n_vertices), key=lambda u: len(mesh.stars[u]))
        got = [(kind, e, face) for _, kind, e, face in
               _star_constraints(front, v, 1e-9)]
        assert [e for _, e, _ in got] == [
            e for e, _ in mesh.stars[v] for _ in per_element]
        assert [k for k, _, _ in got] == per_element * len(mesh.stars[v])
        # only the d = 3 face constraints, after each element's first, name
        # a face, and it starts with v
        faces = [f for _, _, f in got]
        whole = [i % len(per_element) == 0 or d < 3 for i in range(len(faces))]
        assert [f is None for f in faces] == whole
        assert all(f[0] == v for f in faces if f is not None)


class TestComputeLift:
    def test_binding_cone(self, right_triangle):
        front = Front(with_initial_times(right_triangle, [0.0, 0.0, 0.3]),
                      precompute(right_triangle), 10.0)
        bound = compute_lift(0, front)
        assert bound.kind == "cone"
        assert bound.element == 0
        assert bound.value == pytest.approx(math.sqrt(0.91), rel=1e-9)

    def test_binding_progress_flat_equilateral(self, equilateral):
        front = Front(equilateral, precompute(equilateral), 10.0)
        bound = compute_lift(0, front)
        assert bound.kind == "progress"
        assert bound.value == pytest.approx(0.9 * math.sqrt(3) / 2, rel=1e-9)

    def test_target_clamp(self, equilateral):
        front = Front(equilateral, precompute(equilateral), 0.25)
        bound = compute_lift(0, front)
        assert bound.kind == "target"
        assert bound.value == 0.25

    def test_requires_local_minimum(self, right_triangle):
        front = Front(with_initial_times(right_triangle, [0.0, 0.0, 0.3]),
                      precompute(right_triangle), 10.0)
        with pytest.raises(ValueError, match="local minimum"):
            compute_lift(2, front)

    def test_monotone_in_epsilon(self, rng):
        from synthetic_meshes import delaunay_mesh

        mesh = delaunay_mesh(20, rng)
        values = []
        for eps in (0.05, 0.1, 0.2, 0.35, 0.5):
            front = Front(mesh, precompute(mesh, eps), 10.0)
            values.append(compute_lift(0, front).value)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_stall_detector_on_invalid_state(self):
        # a state that violates the progress invariant: the thin vertex sits
        # exactly at its cone ceiling, so no lift can advance it
        mesh = GroundMesh(2, [[3.0, 0.1], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])
        front = Front(mesh, precompute(mesh), 10.0)
        front.times = [-1.84, 1.0, 0.05]  # bypasses init validation
        ceiling = compute_lift(0, front).value
        front.times[0] = ceiling
        with pytest.raises(StallError):
            compute_lift(0, front)

    def test_progress_floor_on_random_runs(self, rng):
        from synthetic_meshes import delaunay_mesh

        mesh = delaunay_mesh(25, rng)
        eps = 0.1
        cons = precompute(mesh, eps)
        T = 2.0
        _, trace = run(mesh, PitchConfig(target_time=T, epsilon=eps))
        for r in trace.lifts:
            if r.new_time < T:
                assert r.new_time - r.old_time >= eps * cons.omega[r.vertex] * (
                    1 - 1e-9
                )

    def test_cone_binding_is_tight(self, rng):
        from synthetic_meshes import delaunay_mesh

        mesh = delaunay_mesh(25, rng)
        cfg = PitchConfig(target_time=1.5)
        front = Front(mesh, precompute(mesh), 1.5)
        checked = 0
        while (v := front.next_vertex(cfg.strategy)) is not None:
            bound = compute_lift(v, front)
            front.apply_lift(v, bound.value)
            if bound.kind == "cone" and bound.face is None:
                e = bound.element
                ids = [int(x) for x in mesh.elements[e]]
                g = gradient(mesh.vertices[ids],
                             [front.times[u] for u in ids])
                assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-9)
                checked += 1
        assert checked > 10


class TestPitchTent:
    def test_fan_patch_of_six(self, fan_mesh):
        mesh, trace = run(fan_mesh, PitchConfig(target_time=0.2))
        first = mesh.patches[0]
        assert first.vertex == 0
        assert len(first.elements) == 6
        assert len(first.inflow) == 6
        assert len(first.outflow) == 6
        for el in first.elements:
            verts = element_rows(mesh)[el]
            assert first.apex in verts and first.base in verts

    def test_single_triangle_patch(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.1))
        assert len(mesh.patches[0].elements) == 1

    def test_1d_tents_are_triangles(self):
        mesh1 = GroundMesh(1, [[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])
        mesh, trace = run(mesh1, PitchConfig(target_time=1.0))
        middle_patches = [p for p in mesh.patches if p.vertex == 1]
        assert middle_patches
        assert len(middle_patches[0].elements) == 2
        for el in element_rows(mesh):
            assert len(el) == 3


class TestRun:
    def test_single_triangle_element_budget(self, right_triangle):
        cfg = PitchConfig(target_time=10.0, epsilon=0.1)
        mesh, _ = run(right_triangle, cfg)
        budget = single_triangle_budget(right_triangle, 10.0, 0.1)
        assert budget == pytest.approx(10.0 * (2 + math.sqrt(2)) / 0.1)
        assert mesh.n_elements <= budget

    def test_constants_for_another_epsilon_rejected(self, right_triangle):
        constants = precompute(right_triangle, 0.2)
        with pytest.raises(ValueError, match="different epsilon"):
            run(right_triangle, PitchConfig(target_time=1.0, epsilon=0.1),
                constants=constants)

    def test_zero_target_empty_mesh(self, right_triangle):
        mesh, trace = run(right_triangle, PitchConfig(target_time=0.0))
        assert len(mesh.patches) == 0
        assert len(trace.lifts) == 0

    def test_all_vertices_end_exactly_at_target(self, rng):
        from synthetic_meshes import delaunay_mesh

        mesh2 = delaunay_mesh(20, rng)
        mesh, _ = run(mesh2, PitchConfig(target_time=1.25))
        assert final_times(mesh) == [1.25] * mesh2.n_vertices

    def test_1d_run_facet_slopes(self):
        mesh1 = GroundMesh(1, [[0.0], [1.0], [3.0]], [[0, 1], [1, 2]])
        mesh, trace = run(mesh1, PitchConfig(target_time=4.0))
        result = check_cone_facets(mesh)
        assert result.passed

    def test_obtuse_strip_terminates(self):
        from synthetic_meshes import obtuse_strip_mesh

        strip = obtuse_strip_mesh(3, 175.0)
        mesh, trace = run(strip, PitchConfig(target_time=0.5))
        assert check_cone_facets(mesh).passed

    def test_d3_small_mesh_no_stall(self, rng):
        from synthetic_meshes import random_tet_mesh

        for seed in range(3):
            mesh3 = random_tet_mesh(9, np.random.default_rng(seed))
            mesh, trace = run(mesh3, PitchConfig(target_time=0.5))
            assert check_cone_facets(mesh).passed


# -- reference: compute_lift with its inline per-dimension branches -----------


def _ref_edge_cone(tj, tk, beta, inv_len, w, cap):
    dt = tk - tj
    mu = dt * inv_len
    rad = max(cap * cap - mu * mu, 0.0)
    return tj + beta * dt + w * math.sqrt(rad)


def _ref_cone3(rec, t, cap):
    j, k, l, h11, h12, h22, b1, b2, w = rec
    d1 = t[k] - t[j]
    d2 = t[l] - t[j]
    a1 = h11 * d1 + h12 * d2
    a2 = h12 * d1 + h22 * d2
    rad = max(cap * cap - (a1 * d1 + a2 * d2), 0.0)
    return t[j] + a1 * b1 + a2 * b2 + w * math.sqrt(rad)


def reference_lift(v, front, config):
    """(value, kind, element, face) of the lift as compute_lift computed
    it before _star_constraints: one inline loop, a strict < keeping the
    first of equal constraints.  Its check for a facet already past its
    cap is left out; a valid run never reaches it."""
    ground, cons, t = front.ground, front.constants, front.times
    d = ground.dim
    pf = 1.0 - config.epsilon
    best, kind, best_elem, best_face = math.inf, "cone", None, None
    for e, li in ground.stars[v]:
        cap = 1.0 / ground.speeds[e]
        rec = cons.cone_recs[e][li]
        if d == 1:
            cb = t[rec[0]] + rec[1] * cap
        elif d == 2:
            cb = _ref_edge_cone(t[rec[0]], t[rec[1]], *rec[2:], cap)
        else:
            cb = _ref_cone3(rec, t, cap)
        if cb < best:
            best, kind, best_elem, best_face = cb, "cone", e, None
        if d == 2:
            j, k, _, _, w = rec
            top = t[j] if t[j] > t[k] else t[k]
            pb = top + pf * w * cap
            if pb < best:
                best, kind, best_elem, best_face = pb, "progress", e, None
        elif d == 3:
            for j, k, beta, inv_len, wf, kap in cons.face_recs[e][li]:
                fcap = kap * cap
                fb = _ref_edge_cone(t[j], t[k], beta, inv_len, wf, fcap)
                if fb < best:
                    best, kind, best_elem, best_face = fb, "cone", e, (v, j, k)
                top = t[j] if t[j] > t[k] else t[k]
                pb = top + pf * wf * fcap
                if pb < best:
                    best, kind, best_elem, best_face = pb, "progress", e, (v, j, k)
    best = best - abs(best) * 1e-12
    if best >= config.target_time:
        return config.target_time, "target", None, None
    return best, kind, best_elem, best_face


def _reference_grounds():
    from tentpitch.synthetic import jittered_grid_mesh
    from synthetic_meshes import delaunay_mesh, random_tet_mesh

    # the unit-spaced line and the unjittered grid have equal constraints
    # on different elements, so the tie-break shows in the element
    return {
        "d1": (GroundMesh(1, [[0.0], [1.0], [2.0], [3.0], [3.4]],
                          [[0, 1], [1, 2], [2, 3], [3, 4]],
                          speeds=[2.0, 2.0, 1.0, 0.5]), 2.0),
        "d2": (delaunay_mesh(14, np.random.default_rng(5)), 1.0),
        "d2_grid": (jittered_grid_mesh(3, 3, jitter=0.0), 1.0),
        "d2_speed_schedule": (alternating_speed_grid(), 1.0),
        "d3": (random_tet_mesh(9, np.random.default_rng(3)), 0.6),
    }


class TestReferenceEquivalence:
    @pytest.mark.parametrize("strategy", [GreedyLowest(), MISPhases(seed=4)],
                             ids=["greedy", "mis"])
    @pytest.mark.parametrize("name", ["d1", "d2", "d2_grid",
                                      "d2_speed_schedule", "d3"])
    def test_every_lift_equals_reference(self, name, strategy):
        ground, target = _reference_grounds()[name]
        config = PitchConfig(target_time=target, strategy=strategy)
        front = Front(ground, precompute(ground), target)
        kinds = set()
        while (v := front.next_vertex(strategy)) is not None:
            got = compute_lift(v, front)
            got = (got.value, got.kind, got.element, got.face)
            assert got == reference_lift(v, front, config)
            kinds.add(got[1])
            front.apply_lift(v, got[0])
        assert kinds == {"cone", "progress", "target"} or name == "d1"


class TestInvariance:
    """Patch counts depend on the shape of the mesh, not on where it lies
    or on its units: a rigid motion, or one scale factor applied to space
    and to the target time, leaves every slope and so every tent the
    same."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           mis=st.booleans(), scale=st.floats(0.3, 3.0),
           target=st.floats(0.3, 2.0))
    def test_patch_count_under_rigid_motion_and_scaling(self, dim, seed, mis,
                                                        scale, target):
        from synthetic_meshes import delaunay_mesh, random_tet_mesh

        rng = np.random.default_rng(seed)
        if dim == 2:
            ground = delaunay_mesh(int(rng.integers(8, 20)), rng)
        else:
            ground = random_tet_mesh(int(rng.integers(6, 10)), rng)
        Q, shift = random_rigid_motion(rng, dim)
        strategy = MISPhases() if mis else GreedyLowest()

        def patches(vertices, t):
            moved = GroundMesh(dim, vertices, ground.elements)
            config = PitchConfig(target_time=t, strategy=strategy)
            return len(run(moved, config)[0].patches)

        count = patches(ground.vertices, target)
        assert patches(ground.vertices @ Q.T + shift, target) == count
        assert patches(ground.vertices * scale, target * scale) == count
