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

from conftest import alternating_speed_grid, with_initial_times


def make_front(mesh, target=10.0, epsilon=0.1, initial=None):
    if initial is not None:
        mesh = with_initial_times(mesh, initial)
    return Front(mesh, precompute(mesh, epsilon), target)


def _sorted_progress_message(front, e, ids, ws, cap, kap):
    """The sort-based top/middle pick that _check_progress_state replaced;
    returns the violation message, or None."""
    t = front.times
    order = sorted(range(len(ids)), key=lambda i: t[ids[i]])
    top, mid = order[-1], order[-2]
    gap = t[ids[top]] - t[ids[mid]]
    allowed = (1.0 - front.epsilon) * ws[top] * cap * kap
    if gap > allowed * (1.0 + TOLERANCE):
        return (f"element {e} violates the progress constraint: vertex "
                f"{ids[top]} is {gap:g} above the middle vertex "
                f"(allowed {allowed:g})")
    return None


class TestProgressState:
    @pytest.mark.parametrize("times", list(itertools.product(
        [0.0, 0.3, 2.0], repeat=3)))
    def test_matches_sorted_pick_with_ties(self, right_triangle, times):
        front = make_front(right_triangle)
        front.times = list(times)
        ids, ws = [0, 1, 2], [0.5, 1.0, 2.0]
        want = _sorted_progress_message(front, 0, ids, ws, 1.0, 1.0)
        if want is None:
            front._check_progress_state(0, ids, ws, 1.0, 1.0)
        else:
            with pytest.raises(FrontInvariantError) as excinfo:
                front._check_progress_state(0, ids, ws, 1.0, 1.0)
            assert str(excinfo.value) == want


# -- reference: element validation as it was ----------------------------------


def _reference_progress(front, e, ids, ws, cap, kap):
    t = front.times
    t0, t1, t2 = t[ids[0]], t[ids[1]], t[ids[2]]
    if t2 >= t1 and t2 >= t0:
        top, mid = 2, (1 if t1 >= t0 else 0)
    elif t1 >= t0:
        top, mid = 1, (2 if t2 >= t0 else 0)
    else:
        top, mid = 0, (2 if t2 >= t1 else 1)
    gap = t[ids[top]] - t[ids[mid]]
    allowed = (1.0 - front.epsilon) * ws[top] * cap * kap
    if gap > allowed * (1.0 + TOLERANCE):
        raise FrontInvariantError(
            f"element {e} violates the progress constraint: vertex "
            f"{ids[top]} is {gap:g} above the middle vertex "
            f"(allowed {allowed:g})"
        )


def reference_validate_element(front, e):
    """Front.validate_element before it read plain-int records: ids from
    the numpy element row, the cap 1/speed of the element."""
    cons = front.constants
    t = front.times
    d = front.ground.dim
    ids = front.ground.elements[e]
    s = 1.0 / float(front.ground.speeds[e])
    cap2 = (s * (1.0 + TOLERANCE)) ** 2
    if d == 1:
        a, b, inv_len = cons.slope_recs[e]
        slope = abs(t[b] - t[a]) * inv_len
        if slope * slope > cap2:
            raise FrontInvariantError(
                f"element {e} violates the cone constraint (slope {slope:g})")
        return
    if d == 2:
        a, b, c, h11, h12, h22 = cons.slope_recs[e]
        d1, d2 = t[b] - t[a], t[c] - t[a]
        g2 = h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2
        if g2 > cap2:
            raise FrontInvariantError(
                f"element {e} violates the cone constraint "
                f"(slope {math.sqrt(max(g2, 0)):g}, cap {s:g})")
        _reference_progress(front, e, [int(x) for x in ids],
                            cons.altitudes[e], s, 1.0)
        return
    ids_t, ginv = cons.slope_recs[e]
    dts = np.array([t[ids_t[1]] - t[ids_t[0]],
                    t[ids_t[2]] - t[ids_t[0]],
                    t[ids_t[3]] - t[ids_t[0]]])
    g2 = float(dts @ ginv @ dts)
    if g2 > cap2:
        raise FrontInvariantError(
            f"element {e} violates the cone constraint "
            f"(slope {math.sqrt(max(g2, 0)):g}, cap {s:g})")
    for a, b, c, h11, h12, h22, kap, ws in cons.face_state_recs[e]:
        d1, d2 = t[b] - t[a], t[c] - t[a]
        f2 = h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2
        fcap = kap * s
        if f2 > (fcap * (1.0 + TOLERANCE)) ** 2:
            raise FrontInvariantError(
                f"element {e} face ({a},{b},{c}) exceeds its gradient cap "
                f"(slope {math.sqrt(max(f2, 0)):g}, cap {fcap:g})")
        _reference_progress(front, e, [a, b, c], ws, s, kap)


def _outcome(validate, front, e):
    try:
        validate(front, e)
    except FrontInvariantError as exc:
        return str(exc)
    return None


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
    def test_same_verdicts_and_messages(self, name, rng):
        make, target = VALIDATE_MESHES[name]
        mesh = make()
        front = make_front(mesh, target=target)
        outcomes = set()
        for state in _perturbed_fronts(mesh, target, rng):
            front.times = state
            for e in range(mesh.n_elements):
                want = _outcome(reference_validate_element, front, e)
                got = _outcome(Front.validate_element, front, e)
                assert got == want
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

    def test_beyond_cone_rejected_and_rolled_back(self, right_triangle):
        front = make_front(right_triangle)
        with pytest.raises(FrontInvariantError):
            front.apply_lift(0, 5.0)
        assert front.times[0] == 0.0

    def test_lift_to_target_marks_finished(self, right_triangle):
        front = make_front(right_triangle, target=0.5)
        front.apply_lift(0, 0.5)
        assert front.finished[0]

    def test_non_increasing_lift_rejected(self, right_triangle):
        front = make_front(right_triangle)
        with pytest.raises(ValueError):
            front.apply_lift(0, 0.0)

    def test_star_revalidated_after_lift(self, fan_mesh, rng):
        front = make_front(fan_mesh)
        for _ in range(30):
            v = front.next_vertex(GreedyLowest())
            from tentpitch.pitcher import compute_lift

            bound = compute_lift(v, front)
            front.apply_lift(v, bound.value)  # re-validates the star
            front.validate_star(v)


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
        budget = (T / 0.1) * cons.inverse_omega_sum
        assert len(trace.lifts) <= budget
        assert trace.lifts[-1].new_time == T
