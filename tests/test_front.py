import itertools
import math

import numpy as np
import pytest

from tentpitch import (
    Front,
    FrontInvariantError,
    GreedyLowest,
    GroundMesh,
    MISPhases,
    PitchConfig,
    precompute,
    run,
)
from tentpitch.front import TOLERANCE
from tentpitch.geometry import facet_index
from tentpitch.ground_mesh import inverse_omega_sum

import reference_geometry as refgeo
from conftest import alternating_speed_grid, with_initial_times


def make_front(mesh, target=10.0, epsilon=0.1, initial=None):
    if initial is not None:
        mesh = with_initial_times(mesh, initial)
    return Front(mesh, precompute(mesh, epsilon), target)


# -- reference: the element check the lift loop used to run -------------------


def _reference_cone(what, X, ts, cap):
    g = refgeo.gradient(X, ts)
    if float(g @ g) > (cap * (1.0 + TOLERANCE)) ** 2:
        raise FrontInvariantError(f"{what} violates the cone constraint")


def _reference_progress(front, e, ids, ws, cap):
    # top and middle vertex by a stable sort: a tie goes to the higher index
    t = front.times
    order = sorted(range(len(ids)), key=lambda i: t[ids[i]])
    top, mid = order[-1], order[-2]
    gap = t[ids[top]] - t[ids[mid]]
    if gap > (1.0 - front.epsilon) * ws[top] * cap * (1.0 + TOLERANCE):
        raise FrontInvariantError(
            f"element {e} violates the progress constraint at vertex "
            f"{ids[top]}")


def reference_validate_element(front, e):
    """The check that Front once ran on the star of every lifted vertex,
    with its records built here from the reference geometry: the
    element's time gradient within its cap 1/speed; for d = 2 the gap of
    its top vertex over the middle one within (1 - epsilon) * the top
    vertex's altitude * cap; for d = 3 both on each triangular face, with
    the face's in-face altitudes and its cap scaled by kappa, (1 - epsilon)
    times the clearance ratio of the vertex opposite it.  The slack is
    TOLERANCE, relative."""
    ground = front.ground
    ids = [int(x) for x in ground.elements[e]]
    X = ground.vertices[ids]
    ts = [front.times[u] for u in ids]
    cap = 1.0 / float(ground.speeds[e])
    _reference_cone(f"element {e}", X, ts, cap)
    if ground.dim == 2:
        _reference_progress(front, e, ids,
                            [refgeo.altitude(X, i) for i in range(3)], cap)
    elif ground.dim == 3:
        for l, face in enumerate(facet_index(3).tolist()):
            kap = (1.0 - front.epsilon) * refgeo.clearance(X[l], X[face])
            _reference_cone(f"element {e} face {face}", X[face],
                            [ts[i] for i in face], kap * cap)
            _reference_progress(front, e, [ids[i] for i in face],
                                [refgeo.altitude(X[face], p)
                                 for p in range(3)], kap * cap)


def _outcome(validate, front, e):
    try:
        validate(front, e)
    except FrontInvariantError as exc:
        return str(exc)
    return None


def _reference_verdict(front, times):
    """The first element message of the reference on the front at times,
    or None."""
    front.times = list(times)
    return next(filter(None, (_outcome(reference_validate_element, front, e)
                              for e in range(front.ground.n_elements))), None)


def _initial_verdict(mesh, constants, times):
    """The message with which Front refuses to start at times, or None."""
    try:
        Front(with_initial_times(mesh, times), constants, math.inf)
    except FrontInvariantError as exc:
        return str(exc)
    return None


class TestProgressState:
    """The initial-front check on one triangle whose times tie in every
    way, against the reference's sort-based pick of the top and middle
    vertex."""

    @pytest.mark.parametrize("times", list(itertools.product(
        [0.0, 0.3, 2.0], repeat=3)))
    def test_matches_sorted_pick_with_ties(self, times):
        # cap 2: some of these fronts break the cone, some only progress
        mesh = GroundMesh(2, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
                          [[0, 1, 2]], speeds=[0.5])
        want = _reference_verdict(make_front(mesh), times)
        got = _initial_verdict(mesh, precompute(mesh), times)
        assert (got is None) == (want is None)
        if want is not None:
            assert ("progress" in got) == ("progress" in want)


def _graded_path():
    return GroundMesh(1, [[0.0], [0.3], [0.45], [1.0], [1.7], [2.6]],
                      [[i, i + 1] for i in range(5)],
                      speeds=[1.0, 2.0, 1.0, 0.5, 1.5])


def _speedy_grid():
    from tentpitch.synthetic import jittered_grid_mesh

    g = jittered_grid_mesh(3, 3, seed=4)
    return GroundMesh(2, g.vertices, g.elements,
                      speeds=np.linspace(0.6, 1.6, g.n_elements))


def _tets():
    from tentpitch.synthetic import random_tet_mesh

    return random_tet_mesh(9, np.random.default_rng(3))


VALIDATE_MESHES = {"d1": (_graded_path, 2.0), "d2": (_speedy_grid, 1.0),
                   "d2_speed_schedule": (alternating_speed_grid, 1.0),
                   "d3": (_tets, 0.6)}


def _perturbed_fronts(mesh, target, rng):
    """Fronts of a real run, taken after every few lifts, each as it is and
    with the lifted vertex pushed a little and a lot further; then random
    fronts of growing roughness."""
    front = make_front(mesh, target=target)
    _, trace = run(mesh, PitchConfig(target_time=target))
    times = list(front.times)
    for i, r in enumerate(trace.lifts):
        times[r.vertex] = r.new_time
        if i % 3 == 0:
            for bump in (0.0, 1e-10, 1e-3, 0.05, 0.5):
                state = list(times)
                state[r.vertex] += bump
                yield state
    for scale in (1e-3, 0.05, 0.2, 1.0):
        for _ in range(20):
            yield rng.uniform(0.0, scale, mesh.n_vertices).tolist()


class TestValidateElementReference:
    @pytest.mark.parametrize("name", sorted(VALIDATE_MESHES))
    def test_initial_check_same_verdicts(self, name, rng):
        # the check of the initial front, through the ceilings of every
        # vertex, accepts exactly the fronts on which every element passes
        # the element reference
        make, target = VALIDATE_MESHES[name]
        mesh = make()
        constants = precompute(mesh)
        front = make_front(mesh, target=target)
        outcomes = set()
        for state in _perturbed_fronts(mesh, target, rng):
            want = _reference_verdict(front, state)
            got = _initial_verdict(mesh, constants, state)
            assert (got is None) == (want is None), (state, got, want)
            outcomes.add(None if want is None else
                         "progress" if "progress" in want else "cap")
        kinds = {None, "cap"} if mesh.dim == 1 else {None, "cap", "progress"}
        assert outcomes == kinds

    @pytest.mark.parametrize("make", [_graded_path, _speedy_grid, _tets])
    def test_static_slope_cap_is_bitwise_reciprocal_speed(self, make):
        mesh = make()
        assert len(mesh.slope_caps) == mesh.n_elements
        for e, got in enumerate(mesh.slope_caps):
            assert type(got) is float
            assert got == 1.0 / float(mesh.speeds[e])


class TestInit:
    def test_flat_front_valid(self, right_triangle):
        front = make_front(right_triangle)
        assert front.times == [0.0, 0.0, 0.0]
        assert not any(front.finished)

    def test_cone_violation_rejected(self, right_triangle):
        with pytest.raises(FrontInvariantError, match="element 0"):
            make_front(right_triangle, initial=[0.0, 0.0, 10.0])

    def test_gentle_slope_valid(self, right_triangle):
        # t = 0.4 * x keeps the gradient at 0.4 and the progress gap small
        x = right_triangle.vertices[:, 0]
        front = make_front(right_triangle, initial=0.4 * x)
        assert front.times[2] == pytest.approx(0.4)

    def test_progress_violation_rejected(self):
        # top vertex more than (1-eps)*w above the middle: cone-legal
        # (gradient 0.95) but the front could no longer guarantee progress
        mesh = GroundMesh(2, [[-2.0, 0.1], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])
        with pytest.raises(FrontInvariantError, match="progress"):
            make_front(mesh, initial=[-1.9, 0.0, 0.95])

    def test_nonfinite_rejected(self, right_triangle):
        with pytest.raises(ValueError):
            make_front(right_triangle, initial=[0.0, math.nan, 0.0])


class TestNextVertex:
    def test_flat_front_index_tiebreak(self, right_triangle):
        front = make_front(right_triangle)
        assert front.next_vertex(GreedyLowest()) == 0

    def test_unique_minimum_on_path(self):
        mesh = GroundMesh(1, [[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])
        front = Front(with_initial_times(mesh, [0.1, 0.0, 0.2]),
                      precompute(mesh), 10.0)
        assert front.next_vertex(GreedyLowest()) == 1

    def test_mis_single_vertex_per_phase_in_clique(self, right_triangle):
        front = make_front(right_triangle)
        strategy = MISPhases(seed=0)
        v = front.next_vertex(strategy)
        assert v == 0
        phase = front.phase_counter
        front.apply_lift(v, 0.5)
        # the other two vertices are neighbors of 0, so a new phase starts
        v2 = front.next_vertex(strategy)
        assert front.phase_counter == phase + 1
        assert v2 in (1, 2)

    def test_exhausted_when_all_finished(self, right_triangle):
        front = make_front(right_triangle, target=0.0)
        assert all(front.finished)
        assert front.next_vertex(GreedyLowest()) is None
        assert front.next_vertex(MISPhases()) is None


class TestApplyLift:
    def test_valid_lift(self, right_triangle):
        front = make_front(right_triangle)
        w_p = 1.0
        front.apply_lift(0, 0.5 * w_p)
        assert front.times[0] == 0.5
        assert not front.is_local_minimum(0)

    def test_lift_to_target_marks_finished(self, right_triangle):
        front = make_front(right_triangle, target=0.5)
        front.apply_lift(0, 0.5)
        assert front.finished[0]

    def test_non_increasing_lift_rejected(self, right_triangle):
        front = make_front(right_triangle)
        with pytest.raises(ValueError):
            front.apply_lift(0, 0.0)

    def test_star_revalidated_after_lift(self, fan_mesh):
        # apply_lift does not re-check the star; a front at the lifted
        # times still passes the check of an initial front
        from tentpitch.pitcher import compute_lift

        constants = precompute(fan_mesh)
        front = Front(fan_mesh, constants, 10.0)
        for _ in range(30):
            v = front.next_vertex(GreedyLowest())
            front.apply_lift(v, compute_lift(v, front).value)
            Front(with_initial_times(fan_mesh, front.times), constants, 10.0)


class TestDeterminism:
    def test_greedy_identical_sequences(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        mesh = delaunay_mesh(25, rng)
        cfg = PitchConfig(target_time=2.0)
        _, t1 = run(mesh, cfg)
        _, t2 = run(mesh, cfg)
        seq1 = [(r.vertex, r.new_time) for r in t1.lifts]
        seq2 = [(r.vertex, r.new_time) for r in t2.lifts]
        assert seq1 == seq2

    def test_mis_seeded_determinism_and_independence(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        mesh = delaunay_mesh(30, rng)
        cons = precompute(mesh, 0.1)
        strategy = MISPhases(seed=11)

        def run_phases():
            front = Front(mesh, cons, 1.0)
            from tentpitch.pitcher import compute_lift

            phases = []
            order = []
            while (v := front.next_vertex(strategy)) is not None:
                while len(phases) < front.phase_counter:
                    phases.append([])
                phases[front.phase_counter - 1].append(v)
                order.append(v)
                front.apply_lift(v, compute_lift(v, front).value)
            return phases, order

        phases1, order1 = run_phases()
        phases2, order2 = run_phases()
        assert order1 == order2
        for members in phases1:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert b not in mesh.neighbors[a]

    def test_mis_different_seed_changes_order(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        mesh = delaunay_mesh(40, rng)
        orders = []
        for seed in (1, 2):
            _, trace = run(mesh, PitchConfig(target_time=1.0,
                                             strategy=MISPhases(seed=seed)))
            orders.append([r.vertex for r in trace.lifts])
        assert orders[0] != orders[1]


class TestTermination:
    def test_lift_count_bounded(self, rng):
        from tentpitch.synthetic import delaunay_mesh

        mesh = delaunay_mesh(20, rng)
        cons = precompute(mesh, 0.1)
        T = 3.0
        _, trace = run(mesh, PitchConfig(target_time=T, epsilon=0.1))
        budget = (T / 0.1) * inverse_omega_sum(cons.omega)
        assert len(trace.lifts) <= budget
        assert trace.lifts[-1].new_time == T
