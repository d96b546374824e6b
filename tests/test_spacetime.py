import gc
import tracemalloc
from collections import deque
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tentpitch import GroundMesh, PitchConfig, load, precompute, run, stats
from tentpitch.io_formats import (parse_triangle, spacetime_json_pieces,
                                  vtk_pieces, write_spacetime_json)
from tentpitch.pitcher import pitch_tent
from tentpitch.spacetime import Facet, SpaceTimeMesh, mesh_arrays
from tentpitch.verifier import check_causality

from conftest import element_rows, mesh_objects, reference_arrays
from reference_checks import causal_sweep
from reference_reader import assert_same_columns
from test_io_writers import RUNS, _run

DATA = Path(__file__).parent / "data"


@pytest.fixture
def two_triangle_run():
    mesh2 = GroundMesh(
        2,
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [[0, 1, 2], [1, 3, 2]],
    )
    mesh, trace = run(mesh2, PitchConfig(target_time=1.0))
    return mesh2, mesh, trace


class TestAppendPatch:
    """The links pitch_tent makes as it appends each patch, and
    check_causality's rejection of a patch appended off them."""

    def test_first_patch_consumes_initial_front(self, two_triangle_run):
        _, mesh, _ = two_triangle_run
        assert all(f.producer == -1 for f in mesh.patches[0].inflow)

    def test_later_patch_consumes_mixed_facets(self, two_triangle_run):
        # a vertex shared by both triangles eventually consumes one facet
        # from the initial front and one produced by an earlier patch
        _, mesh, _ = two_triangle_run
        mixed = [
            p for p in mesh.patches
            if {f.producer == -1 for f in p.inflow} == {True, False}
        ]
        assert mixed

    def test_producer_links_point_backwards(self, two_triangle_run):
        _, mesh, _ = two_triangle_run
        for p in mesh.patches:
            for f in p.inflow:
                assert f.producer < p.id

    def test_off_frontier_patch_rejected(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.5))
        assert check_causality(mesh).passed
        objects = mesh_objects(mesh)
        objects.patches[-1].inflow[0] = Facet(0, (97, 98, 99), -1)
        result = check_causality(reference_arrays(objects))
        assert not result.passed
        assert result.message == (
            f"sweep failed at patch {len(objects.patches) - 1}: its inflow "
            f"facet 0 is not the last facet made on ground element 0")

    def test_tent_past_the_terminal_front_rejected(self, right_triangle):
        # a well-linked tent above a finished front leaves the other
        # frontier vertices below its apex
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.5))
        pitch_tent(mesh, 0, 0.75)
        result = check_causality(mesh)
        assert not result.passed
        assert result.message == "frontier facet 0 is below the last apex time"

    def test_out_of_order_patch_id_rejected(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.5))
        pitch_tent(mesh, 0, 0.75)
        objects = mesh_objects(mesh)
        objects.patches[-1].id = 0
        result = check_causality(reference_arrays(objects))
        assert not result.passed
        assert result.message == f"patch {len(objects.patches) - 1} has id 0"


class TestCausalSweep:
    """The object-based reference sweep; check_causality agrees."""

    def test_success_on_generated_meshes(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        for seed in range(3):
            g = delaunay_mesh(20, np.random.default_rng(seed))
            mesh, _ = run(g, PitchConfig(target_time=1.0))
            assert causal_sweep(mesh).ok
            assert check_causality(mesh).passed

    def test_swapped_dependent_patches_fail(self, two_triangle_run):
        mesh = mesh_objects(two_triangle_run[1])
        dependent = next(
            p for p in mesh.patches if any(f.producer >= 0 for f in p.inflow)
        )
        i = next(f.producer for f in dependent.inflow if f.producer >= 0)
        mesh.patches[i], mesh.patches[dependent.id] = (
            mesh.patches[dependent.id],
            mesh.patches[i],
        )
        result = causal_sweep(mesh)
        assert not result.ok
        assert result.failed_patch == dependent.id
        assert not check_causality(reference_arrays(mesh)).passed

    def test_empty_mesh_succeeds(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.0))
        result = causal_sweep(mesh)
        assert result.ok
        assert result.patches_visited == 0
        assert check_causality(mesh).passed

    def test_visitor_receives_producer_tokens(self, two_triangle_run):
        _, mesh, _ = two_triangle_run
        seen = {}

        def visitor(patch, inflow_tokens):
            seen[patch.id] = list(inflow_tokens)
            return f"out-{patch.id}"

        assert causal_sweep(mesh, visitor).ok
        dependent = next(
            p for p in mesh.patches if any(f.producer >= 0 for f in p.inflow)
        )
        producer = next(f.producer for f in dependent.inflow if f.producer >= 0)
        assert f"out-{producer}" in seen[dependent.id]


class TestStats:
    def test_single_patch_counts(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.4))
        st = stats(mesh)
        assert st.patches == len(mesh.patches)
        assert st.elements == len(element_rows(mesh))
        assert st.patch_size_histogram == {1: st.patches}

    def test_identical_patches_ratio_one(self):
        # two far-apart triangles, one lift each at target below all bounds
        g = GroundMesh(
            2,
            [[0, 0], [1, 0], [0, 1], [10, 10], [11, 10], [10, 11]],
            [[0, 1, 2], [3, 4, 5]],
        )
        mesh, _ = run(g, PitchConfig(target_time=0.05))
        st = stats(mesh)
        assert st.duration_ratio == pytest.approx(1.0)

    def test_graded_mesh_reports_spread(self):
        from tentpitch.synthetic import two_scale_mesh

        g = two_scale_mesh(4.0)
        mesh, _ = run(g, PitchConfig(target_time=0.5))
        st = stats(mesh)
        assert st.duration_ratio > 1.0

    def test_durations_positive(self, two_triangle_run):
        _, mesh, _ = two_triangle_run
        times = np.array(mesh.times)
        for el in element_rows(mesh):
            ts = times[list(el)]
            assert ts.max() - ts.min() > 0


class TestFrontierConservation:
    def test_frontier_tracks_consumed_and_produced(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        g = delaunay_mesh(15, rng)
        mesh, _ = run(g, PitchConfig(target_time=0.8))
        frontier = {(f.ground_element, f.vertices) for f in mesh.initial_facets}
        for p in mesh.patches:
            for f in p.inflow:
                key = (f.ground_element, f.vertices)
                assert key in frontier
                frontier.remove(key)
            for f in p.outflow:
                frontier.add((f.ground_element, f.vertices))
        assert frontier == {
            (f.ground_element, f.vertices) for f in mesh.frontier
        }

    def test_terminal_frontier_at_target_time(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        g = delaunay_mesh(15, rng)
        mesh, _ = run(g, PitchConfig(target_time=0.8))
        for f in mesh.frontier:
            for vid in f.vertices:
                assert mesh.times[vid] == 0.8


class TestColumns:
    def test_run_retains_under_90_bytes_per_element(self):
        # the times and elements buffers, lifted vertices and front plus
        # the trace: about 72 bytes per element here, against 140 when the
        # mesh kept a tuple per element and a coordinate tuple per vertex
        from tentpitch.synthetic import two_scale_mesh

        g = two_scale_mesh(4.0, 0)
        config = PitchConfig(target_time=1.0)
        constants = precompute(g, config.epsilon)
        run(g, config, constants=constants)  # first run: lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            mesh, trace = run(g, config, constants=constants)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert mesh.n_elements > 5000
        assert held / mesh.n_elements < 90

    @pytest.mark.parametrize("name", ["d2", "d3"])
    def test_no_view_outlives_a_read(self, name):
        # an array cannot grow while a numpy view of it lives: every reader
        # must let go of the buffers before pitching goes on
        g, whole, trace = _run(name)
        mesh = SpaceTimeMesh(g, trace.initial_times)
        half = len(trace.lifts) // 2
        for r in trace.lifts[:half]:
            pitch_tent(mesh, r.vertex, r.new_time)
        stats(mesh)
        mesh_arrays(mesh)
        assert mesh.patches and mesh.frontier
        deque(spacetime_json_pieces(mesh), maxlen=0)
        if g.dim == 2:
            deque(vtk_pieces(mesh), maxlen=0)
        for r in trace.lifts[half:]:
            pitch_tent(mesh, r.vertex, r.new_time)
        assert write_spacetime_json(mesh) == write_spacetime_json(whole)


def _golden_grid_run():
    node = DATA / "golden_grid.node"
    g = load(parse_triangle(node.read_text(),
                            node.with_suffix(".ele").read_text()))
    return (g, *run(g, PitchConfig(target_time=1.0)))


def _empty_run():
    g = GroundMesh(2, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])
    return (g, *run(g, PitchConfig(target_time=0.0)))


class TestMeshArrays:
    """mesh_arrays against the columns of the mesh's patch records and
    facets, laid out one record at a time (conftest.reference_arrays)."""

    @pytest.mark.parametrize("name", [*sorted(RUNS), "golden_grid", "empty"])
    def test_equal_the_reference_layout(self, name):
        make = {"golden_grid": _golden_grid_run, "empty": _empty_run}
        _, mesh, _ = make.get(name, partial(_run, name))()
        assert_same_columns(mesh_arrays(mesh),
                            reference_arrays(mesh_objects(mesh)))

    def test_peak_under_400_bytes_per_element(self):
        # about 200 bytes per element here, against 640 when every Patch
        # and Facet was rebuilt first
        from tentpitch.synthetic import two_scale_mesh

        mesh, _ = run(two_scale_mesh(4.0, 0), PitchConfig(target_time=1.0))
        mesh_arrays(mesh)  # first call: lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            mesh_arrays(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_elements > 5000
        assert peak / mesh.n_elements < 400
