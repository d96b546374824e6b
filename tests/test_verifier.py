import copy
import hashlib
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentpitch import (
    GroundMesh,
    MeshValidationError,
    MISPhases,
    ParseError,
    PitchConfig,
    precompute,
    run,
    verifier,
    verify,
)
from tentpitch.cli import _load_ground, main
from tentpitch.geometry import facet_index
from tentpitch import geometry, ground_mesh
from tentpitch.ground_mesh import load
from tentpitch.io_formats import (
    parse_json_mesh,
    parse_triangle,
    read_spacetime_json,
    write_spacetime_json,
)
from tentpitch.pitcher import LiftRecord, RunTrace
from tentpitch.spacetime import Facet, Patch, mesh_arrays
from tentpitch.verifier import (
    CheckResult,
    check_causality,
    check_cone_facets,
    check_front_snapshots,
    check_lift_bounds_sampled,
    check_progress_trace,
)

import reference_checks as reference
import reference_geometry as refgeo
from conftest import (alternating_speed_grid, mesh_objects, reference_arrays,
                      with_initial_times)
from test_golden import GOLDEN, VERIFY_STDOUT


@pytest.fixture
def small_run(rng):
    from synthetic_meshes import delaunay_mesh

    g = delaunay_mesh(18, rng)
    mesh, trace = run(g, PitchConfig(target_time=1.0))
    return g, mesh, trace


class TestConeFacets:
    def test_pass_on_valid_runs(self, small_run):
        g, mesh, _ = small_run
        result = check_cone_facets(mesh, g)
        assert result.passed
        assert result.details["worst_ratio"] <= 1 + 1e-9

    def test_flat_initial_facets_have_zero_slope(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.0))
        result = check_cone_facets(mesh)
        assert result.passed

    def test_hand_built_steep_facet_fails(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.5))
        # push one apex far into the future: slope ~1.5 on its facets
        apex = mesh.patches[0].apex
        mesh.times[apex] += 1.5
        result = check_cone_facets(mesh)
        assert not result.passed
        assert result.details["offenders"]
        assert result.details["offenders"][0]["slope"] > 1.0

    def test_nan_vertex_time_fails(self, right_triangle):
        # a NaN slope is not within its cap; the file readers reject NaN,
        # so this is the library path
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.5))
        apex = mesh.patches[0].apex
        mesh.times[apex] = math.nan
        result = check_cone_facets(mesh)
        assert not result.passed
        assert result.details["violations"] > 0
        assert not verify(mesh, right_triangle).passed

    @pytest.mark.parametrize("damage", ["steep", "nan"])
    def test_chunks_give_the_one_pass_result(self, small_run, monkeypatch,
                                             damage):
        # every other apex raised (many offenders) or one made NaN: each
        # chunk size gives the result of one pass over all the facets
        g, mesh, _ = small_run
        arrays = mesh_arrays(mesh)
        apexes = arrays.patch_apex[::2]
        if damage == "steep":
            arrays.vertices[apexes, -1] += 0.5
        else:
            arrays.vertices[apexes[len(apexes) // 2], -1] = math.nan
        results = []
        for chunk in (10**9, 1, 7, 64):
            monkeypatch.setattr(verifier, "CONE_CHUNK", chunk)
            r = check_cone_facets(arrays, g)
            results.append((r.passed, r.message, repr(r.details)))
        assert not results[0][0]
        assert results[0][2].count("ground_element") == 5
        assert results == results[:1] * len(results)


class TestProgressTrace:
    def test_pass_on_valid_runs(self, small_run):
        g, _, trace = small_run
        result = check_progress_trace(trace, g)
        assert result.passed
        assert result.details["patches"] <= result.details["patch_budget"]
        assert result.details["elements"] <= result.details["element_budget"]

    def test_single_triangle_budget(self, right_triangle):
        mesh, trace = run(right_triangle, PitchConfig(target_time=10.0))
        budget = refgeo.single_triangle_budget(right_triangle, 10.0, 0.1)
        assert mesh.n_elements <= budget

    def test_doctored_tiny_advance_fails(self, small_run):
        g, _, trace = small_run
        victim = next(r for r in trace.lifts if r.new_time < trace.target_time)
        victim.new_time = victim.old_time + 1e-15
        result = check_progress_trace(trace, g)
        assert not result.passed
        assert result.details["violations"]

    def test_empty_trace_vacuous_pass(self, right_triangle):
        _, trace = run(right_triangle, PitchConfig(target_time=0.0))
        assert check_progress_trace(trace, right_triangle).passed


class TestCausality:
    def test_pass_with_injection_exercised(self, small_run):
        _, mesh, _ = small_run
        result = check_causality(mesh)
        assert result.passed
        assert "injected swap" in result.message

    def test_tampered_mesh_fails(self, small_run):
        mesh = mesh_objects(small_run[1])
        dependent = next(
            p for p in mesh.patches if any(f.producer >= 0 for f in p.inflow)
        )
        i = next(f.producer for f in dependent.inflow if f.producer >= 0)
        mesh.patches[i], mesh.patches[dependent.id] = (
            mesh.patches[dependent.id],
            mesh.patches[i],
        )
        result = check_causality(reference_arrays(mesh))
        assert not result.passed


    @staticmethod
    def _patch(mesh):
        """A patch past the first few with several elements."""
        return next(p for p in mesh.patches[5:] if len(p.elements) > 2)

    def _swap_ids(mesh):
        a, b = mesh.patches[3], mesh.patches[4]
        a.id, b.id = b.id, a.id

    def _base_off_vertex(mesh):
        p = TestCausality._patch(mesh)
        p.base = next(i for i, v in enumerate(mesh.vertex_ground)
                      if v != p.vertex)

    def _short_vertex_ground(mesh):
        mesh.vertex_ground.pop()

    def _element_moved_to_next_patch(mesh):
        p = TestCausality._patch(mesh)
        mesh.patches[p.id + 1].elements.insert(0, p.elements.pop())

    def _element_marked_elsewhere(mesh):
        mesh.element_patch[TestCausality._patch(mesh).elements[1]] -= 1

    def _elements_listed_out_of_order(mesh):
        p = TestCausality._patch(mesh)
        p.elements[0], p.elements[1] = p.elements[1], p.elements[0]

    def _element_with_repeated_vertex(mesh):
        j = TestCausality._patch(mesh).elements[1]
        e = mesh.elements[j]
        mesh.elements[j] = (e[0], e[1], e[1], *e[3:])

    def _tent_dropped(mesh):
        # the last tent, with its element and its inflow and outflow facets
        p = TestCausality._patch(mesh)
        mesh.elements.pop(p.elements[-1])
        mesh.element_patch.pop(p.elements[-1])
        for q in mesh.patches[p.id + 1:]:
            q.elements = [i - 1 for i in q.elements]
        for facets in (p.elements, p.inflow, p.outflow):
            facets.pop()

    def _element_dropped(mesh):
        p = mesh.patches[-1]
        mesh.elements.pop()
        mesh.element_patch.pop()
        p.elements.pop()

    def _stray_element(mesh):
        mesh.elements.append(mesh.elements[-1])
        mesh.element_patch.append(mesh.element_patch[-1])

    @pytest.mark.parametrize("tamper, message", [
        (_swap_ids, "patch 3 has id 4"),
        (_base_off_vertex, "patch {p}'s base is vertex"),
        (_short_vertex_ground, "{v} vertex_ground entries for {v1} vertices"),
        (_tent_dropped, "patch {p} has {k} elements for the {k1} elements "
                        "of its vertex's star"),
        (_element_moved_to_next_patch, "patch {p} has {k} elements for"),
        (_element_marked_elsewhere, "element {j1} is not patch {p}'s element 1"),
        (_elements_listed_out_of_order,
         "element {j0} is not patch {p}'s element 0"),
        (_element_with_repeated_vertex,
         "element {j1} is not patch {p}'s element 1"),
        (_element_dropped, "patch {last} has {size} elements for"),
        (_stray_element, "the patches list {m} elements and element_patch "
                         "marks {m1}, of {m1} elements"),
    ])
    def test_elements_that_are_not_the_patches_tents_fail(
            self, small_run, tamper, message):
        mesh = mesh_objects(small_run[1])
        p = self._patch(mesh)
        want = message.format(
            p=p.id, k=len(p.elements) - 1, k1=len(p.elements), j0=p.elements[0],
            j1=p.elements[1], v=len(mesh.vertices) - 1, v1=len(mesh.vertices),
            last=mesh.patches[-1].id, size=len(mesh.patches[-1].elements) - 1,
            m=len(mesh.elements), m1=len(mesh.elements) + 1)
        tamper(mesh)
        result = check_causality(reference_arrays(mesh))
        assert not result.passed
        assert result.message.startswith(want)
        _same_result(result, reference.causality(mesh))


class TestFrontSnapshots:
    def test_pass_on_valid_runs(self, small_run):
        g, _, trace = small_run
        assert check_front_snapshots(trace, g).passed

    def test_flat_front_trivially_liftable(self, right_triangle):
        mesh, trace = run(right_triangle, PitchConfig(target_time=0.4))
        assert check_front_snapshots(trace, right_triangle).passed

    def test_crafted_unliftable_state_fails(self):
        # after the fake lift the thin vertex's cone ceiling extrapolates far
        # below the middle vertex, so the progress invariant is broken
        g = GroundMesh(2, [[-2.0, 0.1], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]],
                       initial_times=[-0.01, 0.0, 0.0])
        trace = RunTrace(
            epsilon=0.1, target_time=1.0, tolerance=1e-9,
            strategy="greedy", seed=0,
            initial_times=[-0.01, 0.0, 0.0],
        )
        trace.lifts.append(
            LiftRecord(vertex=2, old_time=0.0, new_time=0.99,
                       kind="cone", element=0, face=None, patch=0)
        )
        result = check_front_snapshots(trace, g)
        assert not result.passed
        assert "cannot clear" in result.message

    def test_cut_run_to_time_zero_fails(self):
        # a run to T = 0 from negative initial times must end every vertex
        # at 0 too
        g = GroundMesh(1, [[0.0], [1.0], [2.0]], [[0, 1], [1, 2]],
                       initial_times=[-0.5, -0.5, -0.5])
        _, trace = run(g, PitchConfig(target_time=0.0))
        assert len(trace.lifts) == 3
        assert check_front_snapshots(trace, g).passed
        del trace.lifts[2:]
        result = check_front_snapshots(trace, g)
        assert not result.passed
        assert result.message.startswith(
            "replay ended with 1 vertices not at the target time")
        assert result == reference_front_snapshots(trace, g)

    def test_inconsistent_trace_detected(self, small_run):
        g, _, trace = small_run
        trace.lifts[0].old_time += 0.5
        result = check_front_snapshots(trace, g)
        assert not result.passed
        assert "inconsistent" in result.message


class TestLiftBoundsSampled:
    def test_pass_on_valid_runs(self, small_run):
        g, _, trace = small_run
        result = check_lift_bounds_sampled(trace, g, fraction=0.05, seed=1)
        assert result.passed
        assert result.details["worst_rel_error"] < 1e-7

    def test_oracle_matches_compute_lift(self, right_triangle):
        from tentpitch import Front
        from tentpitch.pitcher import compute_lift

        front = Front(with_initial_times(right_triangle, [0.0, 0.0, 0.3]),
                      precompute(right_triangle), 10.0)
        bound = compute_lift(0, front)
        times = np.array(front.times)
        oracle = verifier._oracle_max_lifts(
            right_triangle, np.array([0]), lambda u, s: times[u], 0.1)[0][0]
        assert oracle == pytest.approx(bound.value, rel=1e-9)

    def test_overstated_lift_fails(self, right_triangle):
        _, trace = run(right_triangle, PitchConfig(target_time=2.0))
        victim = next(r for r in trace.lifts if r.new_time < 2.0)
        victim.new_time += 0.05
        # make the replayed state consistent for later lifts of the vertex
        later = [r for r in trace.lifts
                 if r.vertex == victim.vertex and r.old_time == victim.new_time - 0.05
                 and r is not victim]
        if later:
            later[0].old_time = victim.new_time
        result = check_lift_bounds_sampled(trace, right_triangle,
                                           fraction=1.0, seed=0)
        assert not result.passed


class TestVerifyOrchestration:
    def test_full_report_on_valid_run(self, small_run):
        g, mesh, trace = small_run
        report = verify(mesh, g, trace)
        assert report.passed
        names = {c.name for c in report.checks}
        assert names == {
            "cone_facets",
            "causality",
            "progress_trace",
            "front_snapshots",
            "lift_bounds_sampled",
        }
        assert len(report.checks) == 5

    def test_mesh_only(self, small_run):
        g, mesh, _ = small_run
        report = verify(mesh, g)
        assert {c.name for c in report.checks} == {"cone_facets", "causality"}

    def test_trace_only(self, small_run):
        g, _, trace = small_run
        report = verify(ground=g, trace=trace)
        assert report.passed

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_run_verifies_without_precompute(self, name, tmp_path,
                                                    capsys, monkeypatch):
        # the verifier derives its progress floor from coordinates: every
        # binding of the generator's table builder refuses, and the report
        # is still the recorded one
        ground, args, _ = GOLDEN[name]
        out, trace = tmp_path / "st.json", tmp_path / "trace.json"
        assert main(["pitch", "--input", str(DATA / ground), *args,
                     "--out", str(out), "--trace", str(trace)]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("verify ran precompute")

        original = ground_mesh.precompute
        for mod_name, module in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "tentpitch"
                    and getattr(module, "precompute", None) is original):
                monkeypatch.setattr(module, "precompute", refuse)
        assert main(["verify", "--mesh", str(out), "--ground",
                     str(DATA / ground), "--trace", str(trace)]) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_STDOUT[name]


# -- batched replay and oracle against lift-by-lift references ---------------


def reference_front_snapshots(trace, ground, tol=1e-9):
    """The lift-by-lift replay that check_front_snapshots batches, each
    ceiling the larger root of |g + s * a| = cap: the gradient g on the
    element, plus s times the gradient a of the lowest vertex's
    barycentric coordinate, a column of the gradient operator or, for
    vertex 0, minus their sum."""
    G = geometry.gradient_operators(ground.vertices[ground.elements])
    times = list(trace.initial_times)
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
            t = np.array([times[u] for u in ids])
            order = sorted(range(len(ids)), key=lambda i: times[ids[i]])
            low, mid = order[0], order[1]
            cap = 1.0 / ground.speeds[e]
            g = G[e] @ (t[1:] - t[0])
            a = G[e][:, low - 1] if low else -G[e].sum(axis=1)
            aa, ag = float(a @ a), float(a @ g)
            disc = ag * ag - aa * (float(g @ g) - cap * cap)
            ceiling = (-math.inf if disc < 0 else
                       t[low] + (math.sqrt(disc) - ag) / aa)
            margin = float(ceiling - times[ids[mid]])
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
    if unfinished:
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


def _reference_oracle_static(ground, v):
    """Per star element of v: the altitude of v, the gradient operator
    and, for d = 3, the same for each face containing v with the clearance
    ratio of the opposite vertex over it, all from first principles."""
    d = ground.dim
    entries = []
    for e, li in ground.stars[v]:
        ids = ground.elements[e]
        coords = ground.vertices[ids]
        w = refgeo.altitude(coords, li)
        faces = []
        if d == 3:
            for l in range(4):
                if l == li:
                    continue
                face_local = [x for x in range(4) if x != l]
                fcoords = coords[face_local]
                sigma = refgeo.clearance(coords[l], fcoords)
                pos = face_local.index(li)
                wf = refgeo.altitude(fcoords, pos)
                faces.append((face_local, pos, sigma, wf,
                              refgeo.gradient_operator(fcoords)))
        entries.append((e, li, ids, w, refgeo.gradient_operator(coords),
                        faces))
    return entries


def _reference_feasible(ground, static, times, v, t_new, epsilon,
                        slack=1e-12):
    pf = 1.0 - epsilon
    for e, li, ids, w, grad_op, faces in static:
        ts = [times[u] for u in ids]
        ts[li] = t_new
        cap = 1.0 / ground.speeds[e]
        grad = grad_op @ np.subtract(ts[1:], ts[0])
        if float(np.linalg.norm(grad)) > cap * (1.0 + slack):
            return False
        if ground.dim == 2:
            top = max(t for i, t in enumerate(ts) if i != li)
            if t_new > top + pf * w * cap * (1.0 + slack) + slack:
                return False
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


def reference_oracle_max_lift(ground, times, v, epsilon, iters=60):
    """The one-vertex bisection the batched oracle kernel replaced."""
    static = _reference_oracle_static(ground, v)
    lo = times[v]
    step = max(max(w * (1.0 / ground.speeds[e])
                   for e, _, _, w, _, _ in static), 1e-12)
    hi = lo + step
    grow = 0
    while (_reference_feasible(ground, static, times, v, hi, epsilon)
           and grow < 60):
        lo = hi
        hi = lo + step
        step *= 2.0
        grow += 1
    for _ in range(iters):
        midpt = 0.5 * (lo + hi)
        if _reference_feasible(ground, static, times, v, midpt, epsilon):
            lo = midpt
        else:
            hi = midpt
    return lo


def _line_mesh():
    return GroundMesh(1, [[0.0], [0.8], [2.1], [3.0], [3.4]],
                      [[0, 1], [1, 2], [2, 3], [3, 4]])


def _tet_mesh():
    from synthetic_meshes import random_tet_mesh

    return random_tet_mesh(9, np.random.default_rng(3))


def _grid_mesh():
    from tentpitch.synthetic import jittered_grid_mesh

    return jittered_grid_mesh(4, 3, seed=5)


MESHES = {
    "d1": (_line_mesh, 3.0),
    "d2": (_grid_mesh, 1.0),
    "d3": (_tet_mesh, 0.4),
    "schedule": (alternating_speed_grid, 1.0),
}


def _tampered(trace, kind, pos):
    """A copy of the trace with one defect at lift pos (mod its length)."""
    trace = copy.deepcopy(trace)
    j = pos % len(trace.lifts)
    r = trace.lifts[j]
    if kind == "old_time":
        r.old_time += 0.25
    elif kind == "liftability":
        r.new_time += 5.0
    elif kind == "truncate":
        del trace.lifts[j:]
    return trace


def _same_result(a, b):
    assert a.line() == b.line()
    assert a.details == b.details
    assert a.passed == b.passed


class TestBatchedReplay:
    @pytest.mark.parametrize("mesh", sorted(MESHES))
    @pytest.mark.parametrize("kind", [None, "old_time", "liftability",
                                      "truncate"])
    def test_matches_lift_by_lift_replay(self, mesh, kind):
        make, target = MESHES[mesh]
        g = make()
        _, trace = run(g, PitchConfig(target_time=target))
        if kind is not None:
            trace = _tampered(trace, kind, len(trace.lifts) // 3)
        want = reference_front_snapshots(trace, g)
        assert want.passed == (kind is None)
        _same_result(check_front_snapshots(trace, g), want)

    def test_chunks_keep_lift_order(self, monkeypatch):
        # a liftability break past several chunks is found, and an old-time
        # mismatch in an earlier chunk still wins over it
        g = _grid_mesh()
        _, trace = run(g, PitchConfig(target_time=1.0))
        monkeypatch.setattr(verifier, "REPLAY_CHUNK", 7)
        late = _tampered(trace, "liftability", len(trace.lifts) - 5)
        _same_result(check_front_snapshots(late, g),
                     reference_front_snapshots(late, g))
        both = _tampered(late, "old_time", 9)
        got = check_front_snapshots(both, g)
        assert "inconsistent at lift 9" in got.message
        _same_result(got, reference_front_snapshots(both, g))

    def test_trace_not_of_this_mesh_fails(self, right_triangle):
        checks = [check_front_snapshots, check_progress_trace,
                  lambda t, g: check_lift_bounds_sampled(t, g, fraction=1.0)]
        for check in checks:
            for vertex in (3, -1):
                _, trace = run(right_triangle, PitchConfig(target_time=0.5))
                trace.lifts[1].vertex = vertex
                result = check(trace, right_triangle)
                assert not result.passed
                assert f"lift 1 moves vertex {vertex}," in result.message
            trace.initial_times = [0.0, 0.0]
            result = check(trace, right_triangle)
            assert not result.passed
            assert "trace has 2 initial times" in result.message

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(2, 5), ny=st.integers(2, 4),
           seed=st.integers(0, 10_000),
           kind=st.sampled_from([None, "old_time", "liftability", "truncate"]),
           pos=st.integers(0, 10_000))
    def test_property_random_grids(self, nx, ny, seed, kind, pos):
        from tentpitch.synthetic import jittered_grid_mesh

        g = jittered_grid_mesh(nx, ny, seed=seed)
        _, trace = run(g, PitchConfig(target_time=0.6))
        if kind is not None:
            trace = _tampered(trace, kind, pos)
        _same_result(check_front_snapshots(trace, g),
                     reference_front_snapshots(trace, g))


class TestBatchedOracle:
    @pytest.mark.parametrize("mesh", sorted(MESHES))
    def test_matches_scalar_bisection(self, mesh):
        make, target = MESHES[mesh]
        g = make()
        _, trace = run(g, PitchConfig(target_time=target))
        replay, _ = verifier._trace_replay(trace)
        lifts = np.arange(len(trace.lifts))
        got, omega = verifier._oracle_max_lifts(
            g, replay.vertex, lambda u, s: replay.after(u, lifts[s] - 1),
            trace.epsilon,
        )
        times = list(trace.initial_times)
        cons = precompute(g, trace.epsilon)
        for idx, r in enumerate(trace.lifts):
            want = reference_oracle_max_lift(g, times, r.vertex, trace.epsilon)
            assert got[idx] == pytest.approx(want, rel=1e-12, abs=0)
            assert omega[idx] == pytest.approx(cons.omega[r.vertex], rel=1e-12)
            times[r.vertex] = r.new_time


# -- the gradient-operator forms against the Gram and hull-foot forms -----------

# simplices with a vertex whose hull foot falls outside its opposite
# facet (for d = 1, a short segment)
OBTUSE = {
    1: [[0.0], [1e-3]],
    2: [[0.0, 0.0], [1.0, 0.0], [3.0, 0.2]],
    3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 2.5, 0.1]],
}


def _cross_form_simplices(d):
    rng = np.random.default_rng(d)
    simplices = [rng.normal(size=(d + 1, d)) for _ in range(20)]
    return simplices + [np.array(OBTUSE[d]), np.array(OBTUSE[d])[::-1]]


def _gram_slope(X, t):
    """The slope sqrt(dt^T (E E^T)^-1 dt) on the simplex X of times t."""
    dt = np.asarray(t[1:]) - t[0]
    return math.sqrt(dt @ refgeo.gram_inverse(X) @ dt) if len(dt) else 0.0


class TestOneConeGradient:
    """The verifier's slopes, liftability ceilings and altitudes, read
    from the gradient operators, against the forms they replaced: a Gram
    solve per facet, the opposite facet's Gram inverse plus the hull foot,
    and the distance to the hull foot."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slope_matches_gram_solve(self, d):
        rng = np.random.default_rng(10 + d)
        for X in _cross_form_simplices(d):
            t = rng.uniform(1.0, 2.0, size=d + 1)
            got = verifier._slopes(geometry.gradient_operators(X)[None],
                                   t[None])[0]
            assert got == pytest.approx(_gram_slope(X, t), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ceiling_matches_hull_foot(self, d):
        rng = np.random.default_rng(20 + d)
        for X in _cross_form_simplices(d):
            altitudes, _, faces = verifier._lift_statics(X, 0.1)
            if d == 3:
                # each face's in-face altitudes, its vertices in the order
                # facet_index(3)[l]
                want = np.array([[refgeo.altitude(X[face], p) for p in range(3)]
                                 for face in facet_index(3)])
                assert faces[1] == pytest.approx(want, rel=1e-12, abs=0)
            for low in range(d + 1):
                t = rng.uniform(1.0, 2.0, size=d + 1)
                t[low] = 0.5
                opposite = facet_index(d)[low]
                F, tF = X[opposite], t[opposite]
                facet_slope = _gram_slope(F, tF)
                foot, bary = refgeo.foot(X[low], F)
                w = float(np.linalg.norm(X[low] - foot))
                assert altitudes[low] == pytest.approx(w, rel=1e-12, abs=0)
                # a cap above the opposite facet's slope, and one below it
                # where that facet has one (d > 1)
                caps = [2.0 * facet_slope + 1.0] + [0.5 * facet_slope] * (d > 1)
                for cap in caps:
                    g = GroundMesh(d, X, [list(range(d + 1))],
                                   speeds=[1.0 / cap])
                    margin, lowest, t_mid = verifier._liftability_margins(
                        g, verifier._gradient_table(g.vertices[g.elements]),
                        np.array([0]), t[None])
                    assert lowest[0] == low
                    rad = cap * cap - facet_slope * facet_slope
                    if rad < 0:
                        assert margin[0] == -math.inf
                        continue
                    want = bary @ tF + w * math.sqrt(rad)
                    assert margin[0] + t_mid[0] == pytest.approx(
                        want, rel=1e-12, abs=0)


# -- array mesh checks against the object-based reference -----------------------

DATA = Path(__file__).parent / "data"


def _golden_grid():
    node = DATA / "golden_grid.node"
    return load(parse_triangle(node.read_text(),
                               node.with_suffix(".ele").read_text()))


# name: (ground mesh, target time, strategy)
RUNS = {
    "d1": (_line_mesh, 3.0, None),
    "d2": (_grid_mesh, 1.0, None),
    "d3": (_tet_mesh, 0.4, None),
    "schedule": (alternating_speed_grid, 1.0, None),
    "mis": (_grid_mesh, 1.0, lambda: MISPhases(seed=3)),
    "golden_grid": (_golden_grid, 1.0, None),
}


@lru_cache(maxsize=None)
def _run(name):
    make, target, strategy = RUNS[name]
    g = make()
    config = PitchConfig(target_time=target)
    if strategy is not None:
        config = PitchConfig(target_time=target, strategy=strategy())
    mesh, trace = run(g, config)
    return g, write_spacetime_json(mesh), trace


def _objects(data: dict, ground: GroundMesh) -> SimpleNamespace:
    """A parsed space-time JSON file as the objects the reference reads,
    under the attribute names of a space-time mesh."""
    def facets(rows):
        return [Facet(e, tuple(v), producer) for e, v, producer in rows]

    return SimpleNamespace(
        ground=ground,
        vertices=[tuple(v) for v in data["vertices"]],
        vertex_ground=list(data["vertex_ground"]),
        elements=[tuple(e) for e in data["elements"]],
        element_patch=list(data["element_patch"]),
        initial_facets=facets(data["initial_facets"]),
        frontier=facets(data["frontier"]),
        patches=[Patch(p["id"], p["vertex"], p["base"], p["apex"],
                       list(p["elements"]), facets(p["inflow"]),
                       facets(p["outflow"])) for p in data["patches"]],
    )


def _interior(data: dict) -> int:
    """First patch from a third of the way on with two or more elements."""
    patches = data["patches"]
    return next(i for i in range(len(patches) // 3, len(patches))
                if len(patches[i]["elements"]) > 1)


def _repeated_vertex_id(data):
    j = data["patches"][_interior(data)]["elements"][1]
    data["elements"][j][2] = data["elements"][j][1]


def _apex_set_to_base(data):
    p = data["patches"][_interior(data)]
    p["apex"] = p["base"]


def _elements_deleted_and_renumbered(data):
    first = _interior(data)
    gone = {p["elements"][-1] for p in data["patches"][first:first + 5]}
    keep = [i for i in range(len(data["elements"])) if i not in gone]
    new_id = {old: new for new, old in enumerate(keep)}
    data["elements"] = [data["elements"][i] for i in keep]
    data["element_patch"] = [data["element_patch"][i] for i in keep]
    for p in data["patches"]:
        p["elements"] = [new_id[i] for i in p["elements"] if i not in gone]


def _frontier_is_initial(data):
    k = 5 % len(data["frontier"])
    data["frontier"][k] = data["initial_facets"][k]


def _last_outflow_reversed(data):
    data["patches"][-1]["outflow"][0][1].reverse()


def _last_outflow_unproduced(data):
    data["patches"][-1]["outflow"][0][2] = -1


def _inflow_producer_moved(data):
    f = data["patches"][_interior(data)]["inflow"][1]
    f[2] = (f[2] + 1) % len(data["patches"])


def _inflow_permuted(data):
    data["patches"][_interior(data)]["inflow"][0][1].reverse()


def _initial_permuted(data):
    data["initial_facets"][0][1].reverse()


def _outflow_dropped(data):
    data["patches"][_interior(data)]["outflow"].pop()


def _outflows_exchanged(data):
    a, b = data["patches"][0], data["patches"][_interior(data)]
    a["outflow"], b["outflow"] = b["outflow"], a["outflow"]


def _base_set_to_initial_copy(data):
    # still over the patch's vertex, but not what its inflow facets hold
    p = next(p for p in data["patches"][_interior(data):]
             if p["base"] != p["vertex"])
    p["base"] = p["vertex"]


def _inflow_rerouted(data):
    # an inflow facet moved off the front, its element and outflow facet
    # moved with it: only the sweep can tell
    p = data["patches"][_interior(data)]
    f, out = p["inflow"][0], p["outflow"][0]
    i = next(i for i, v in enumerate(f[1]) if v != p["base"])
    f[1][i] = out[1][i] = next(v for v in range(len(data["vertices"]))
                               if v not in f[1])
    data["elements"][p["elements"][0]] = [p["apex"], *f[1]]


def _first_producer_is_its_patch(data):
    # the self-test then swaps that patch with itself
    for pid, p in enumerate(data["patches"]):
        f = next((f for f in p["inflow"] if f[2] >= 0), None)
        if f is not None:
            f[2] = pid
            return


def _initial_vertices_swapped(data):
    # vertices 0 and 1 exchange their ground vertices and places
    over, verts = data["vertex_ground"], data["vertices"]
    over[0], over[1] = over[1], over[0]
    verts[0][:-1], verts[1][:-1] = verts[1][:-1], verts[0][:-1]


def _apex_moved(data):
    p = data["patches"][_interior(data)]
    data["vertices"][p["apex"]][0] += 5.0


def _initial_time_raised(data):
    data["vertices"][3][-1] += 0.01


def _apex_time_to_base_time(data):
    p = data["patches"][_interior(data)]
    data["vertices"][p["apex"]][-1] = data["vertices"][p["base"]][-1]


def _apex_time_below_base_time(data):
    p = data["patches"][-1]
    data["vertices"][p["apex"]][-1] = data["vertices"][p["base"]][-1] - 0.01


# the tamperings TestVerifyRejectsWrongElements runs through the CLI, its
# stored-facet ones, and a few more on the facet lists
FILE_TAMPERINGS = {
    "none": lambda data: None,
    "repeated_vertex_id": _repeated_vertex_id,
    "apex_set_to_base": _apex_set_to_base,
    "elements_deleted_and_renumbered": _elements_deleted_and_renumbered,
    "frontier_is_initial": _frontier_is_initial,
    "last_outflow_reversed": _last_outflow_reversed,
    "last_outflow_unproduced": _last_outflow_unproduced,
    "inflow_producer_moved": _inflow_producer_moved,
    "inflow_permuted": _inflow_permuted,
    "initial_permuted": _initial_permuted,
    "outflow_dropped": _outflow_dropped,
    "outflows_exchanged": _outflows_exchanged,
    "base_set_to_initial_copy": _base_set_to_initial_copy,
    "inflow_rerouted": _inflow_rerouted,
    "first_producer_is_its_patch": _first_producer_is_its_patch,
    "apex_moved": _apex_moved,
    "initial_vertices_swapped": _initial_vertices_swapped,
    "initial_time_raised": _initial_time_raised,
    "apex_time_to_base_time": _apex_time_to_base_time,
    "apex_time_below_base_time": _apex_time_below_base_time,
}


def _compare_mesh_checks(data, ground, trace):
    """The array checks on the file's columns give what the reference
    gives on its objects, the cone check in chunks of 7 facets; returns
    whether every check passed."""
    arrays = read_spacetime_json(json.dumps(data), ground)
    objects = _objects(data, ground)
    with mock.patch.object(verifier, "CONE_CHUNK", 7):
        cone = check_cone_facets(arrays, ground)
    _same_result(cone, reference.cone_facets(objects, ground))
    causal = check_causality(arrays)
    _same_result(causal, reference.causality(objects))
    mismatch = verifier._mesh_mismatch(trace, arrays)
    assert mismatch == reference.mesh_mismatch(trace, objects)
    return cone.passed and causal.passed and mismatch is None


class TestArrayMeshChecks:
    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("tamper", sorted(FILE_TAMPERINGS))
    def test_match_reference_on_files(self, name, tamper):
        g, text, trace = _run(name)
        data = json.loads(text)
        FILE_TAMPERINGS[tamper](data)
        assert _compare_mesh_checks(data, g, trace) == (tamper == "none")

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_trace_mismatch_matches_reference(self, name):
        g, text, trace = _run(name)
        data = json.loads(text)
        arrays, objects = read_spacetime_json(text, g), _objects(data, g)
        short = copy.deepcopy(trace)
        del short.lifts[len(short.lifts) // 2:]
        missed = copy.deepcopy(trace)
        r = missed.lifts[len(missed.lifts) // 2]
        r.new_time = (r.old_time + r.new_time) / 2
        for t in (short, missed):
            got = verifier._mesh_mismatch(t, arrays)
            assert got is not None
            assert got == reference.mesh_mismatch(t, objects)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(2, 4), ny=st.integers(2, 4),
           seed=st.integers(0, 10_000), data=st.data())
    def test_property_random_damage(self, nx, ny, seed, data):
        from tentpitch.synthetic import jittered_grid_mesh

        g = jittered_grid_mesh(nx, ny, seed=seed)
        mesh, trace = run(g, PitchConfig(target_time=0.7))
        doc = json.loads(write_spacetime_json(mesh))
        records = [*doc["initial_facets"], *doc["frontier"],
                   *(f for p in doc["patches"]
                     for f in p["inflow"] + p["outflow"])]
        pick = st.integers(0, len(records) - 1)
        n_patches = len(doc["patches"])
        for _ in range(data.draw(st.integers(1, 3))):
            f = records[data.draw(pick)]
            kind = data.draw(st.sampled_from(
                ["permute", "producer", "copy", "drop"]))
            if kind == "permute":
                f[1] = data.draw(st.permutations(f[1]))
            elif kind == "producer":
                f[2] = data.draw(st.integers(-1, n_patches - 1))
            elif kind == "copy":
                f[1] = list(records[data.draw(pick)][1])
            else:
                p = doc["patches"][data.draw(st.integers(0, n_patches - 1))]
                group = p[data.draw(st.sampled_from(["inflow", "outflow"]))]
                if group:
                    group.pop(data.draw(st.integers(0, len(group) - 1)))
        _compare_mesh_checks(doc, g, trace)


class TestEverySingleDamage:
    def test_each_integer_off_by_one_is_rejected(self):
        """+1 and -1 on each integer entry of a space-time file, but its
        vertices and ground_dim: the reader or mesh-only verify rejects
        every damaged file."""
        ground = load(parse_json_mesh((DATA / "golden_path.json").read_text()))
        mesh, _ = run(ground, PitchConfig(target_time=1.0))
        doc = json.loads(write_spacetime_json(mesh))
        entries = []

        def walk(node, path):
            for key, child in (node.items() if isinstance(node, dict)
                               else enumerate(node)):
                if isinstance(child, (dict, list)):
                    walk(child, path + (key,))
                elif type(child) is int and path[:1] not in [
                        (), ("vertices",)]:
                    entries.append((node, key, path + (key,)))

        walk(doc, ())
        read = 0
        for node, key, path in entries:
            value = node[key]
            for delta in (1, -1):
                node[key] = value + delta
                text = json.dumps(doc)
                node[key] = value
                try:
                    arrays = read_spacetime_json(text, ground)
                except (ParseError, MeshValidationError):
                    continue
                read += 1
                assert not verify(arrays, ground).passed, (path, delta)
        assert (len(entries), read) == (951, 1818)


# -- positive volume -------------------------------------------------------------


def _signed_volumes(data: dict, ground: GroundMesh) -> np.ndarray:
    """The (d+1)-volume of each element of a space-time JSON file, from one
    batched determinant, signed relative to the orientation of the ground
    element under it.

    An element is its apex over an inflow facet whose slot of the patch's
    vertex holds the base, at the apex's place.  Expanding the determinant
    of the edges from the apex along that row gives (-1)^(d+1) times the
    tent's height times the ground element's determinant.
    """
    d = ground.dim
    points = np.array(data["vertices"], dtype=float)
    elements = np.array(data["elements"], dtype=np.int64)
    on = [f[0] for p in data["patches"] for f in p["inflow"]]
    under = ground.vertices[ground.elements[on]]
    orientation = np.sign(np.linalg.det(under[:, 1:] - under[:, :1]))
    edges = points[elements[:, 1:]] - points[elements[:, :1]]
    return ((-1) ** (d + 1) * orientation * np.linalg.det(edges)
            / math.factorial(d + 1))


class TestPositiveVolume:
    """check_causality's rule that each apex lies above its base is
    exactly every element having positive (d+1)-volume."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_determinant_volumes_on_golden_runs(self, name, tmp_path):
        ground_file, args, _ = GOLDEN[name]
        out = tmp_path / "st.json"
        assert main(["pitch", "--input", str(DATA / ground_file), *args,
                     "--out", str(out)]) == 0
        ground = _load_ground(str(DATA / ground_file))
        valid = json.loads(out.read_text())
        last = valid["patches"][-1]
        # as pitched, the last tent flattened, and the last tent inverted
        for drop in (None, 0.0, 0.01):
            data = copy.deepcopy(valid)
            if drop is not None:
                data["vertices"][last["apex"]][-1] = (
                    data["vertices"][last["base"]][-1] - drop)
            volumes = _signed_volumes(data, ground)
            result = check_causality(read_spacetime_json(json.dumps(data),
                                                         ground))
            assert result.passed == bool((volumes > 0).all())
            if drop is None:
                assert result.passed
            else:
                assert np.flatnonzero(volumes <= 0).tolist() == last["elements"]
                assert result.message == (f"patch {last['id']}'s apex time is "
                                          f"not above its base time")
