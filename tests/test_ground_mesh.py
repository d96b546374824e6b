import math

import numpy as np
import pytest

from tentpitch import GroundMesh, MeshValidationError, load, precompute
from tentpitch.synthetic import delaunay_mesh, path_mesh_1d, random_tet_mesh
from tentpitch.verifier import _progress_floors

import reference_geometry as refgeo
from conftest import face_caps


def star(mesh, v):
    """Element ids of the elements containing vertex v."""
    return [e for e, _ in mesh.stars[v]]


class TestLoad:
    def test_single_triangle(self):
        mesh = load({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                     "elements": [[0, 1, 2]]})
        assert mesh.dim == 2
        assert mesh.n_elements == 1
        assert all(len(star(mesh, v)) == 1 for v in range(3))

    def test_shared_edge_stars(self):
        mesh = load({
            "dim": 2,
            "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "elements": [[0, 1, 2], [1, 3, 2]],
        })
        assert len(star(mesh, 1)) == 2
        assert len(star(mesh, 2)) == 2
        assert len(star(mesh, 0)) == 1

    def test_repeated_vertex_degenerate(self):
        with pytest.raises(MeshValidationError, match="element 0"):
            load({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                  "elements": [[0, 1, 1]]})

    def test_first_offending_element_reported(self):
        verts = [[0, 0], [1, 0], [0, 1], [2, 0]]
        with pytest.raises(MeshValidationError,
                           match=r"^element 1 is degenerate"):
            load({"dim": 2, "vertices": verts,
                  "elements": [[0, 1, 2], [0, 1, 3], [1, 2, 2]]})
        with pytest.raises(MeshValidationError,
                           match=r"^element 1 repeats a vertex"):
            load({"dim": 2, "vertices": verts,
                  "elements": [[0, 1, 2], [1, 2, 2], [0, 1, 3]]})

    def test_collinear_degenerate(self):
        with pytest.raises(MeshValidationError, match="degenerate"):
            load({"dim": 2, "vertices": [[0, 0], [1, 0], [2, 0]],
                  "elements": [[0, 1, 2]]})

    def test_exactly_coplanar_tet_degenerate(self):
        # four points on the plane z = x + y, exactly in floating point:
        # the round-off in det(E E^T) read as a measure of about 2e-10
        verts = [[0.0, 0.0, 0.0], [0.0, 0.3, 0.3], [0.3, 0.0, 0.3],
                 [0.3, 0.3, 0.6]]
        with pytest.raises(MeshValidationError,
                           match=r"^element 0 is degenerate"):
            load({"dim": 3, "vertices": verts, "elements": [[0, 1, 2, 3]]})

    def test_thin_sliver_degenerate(self):
        # |det E|/2 = 5e-11 clears DEGENERACY_RTOL, but det(E E^T) rounds
        # to 0, so the altitudes would be 0
        with pytest.raises(MeshValidationError,
                           match=r"^element 0 is degenerate"):
            load({"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]],
                  "elements": [[0, 1, 2]]})

    def test_index_out_of_range(self):
        with pytest.raises(MeshValidationError, match="out of range"):
            load({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                  "elements": [[0, 1, 5]]})

    def test_dimension_mismatch(self):
        with pytest.raises(MeshValidationError):
            load({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]],
                  "elements": [[0, 1, 2]]})

    def test_unsupported_dim(self):
        with pytest.raises(MeshValidationError, match="dimension"):
            GroundMesh(5, np.zeros((6, 5)), [[0, 1, 2, 3, 4, 5]])

    def test_boolean_dim_rejected(self):
        # a bool is an int, but True is not dimension 1
        with pytest.raises(MeshValidationError, match="dimension True"):
            load({"dim": True, "vertices": [[0.0], [1.0]],
                  "elements": [[0, 1]]})

    def test_nonpositive_speed(self):
        with pytest.raises(MeshValidationError, match="wave speed"):
            load({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                  "elements": [[0, 1, 2]], "speeds": [-1.0]})

    def test_isolated_vertex_rejected(self):
        with pytest.raises(MeshValidationError, match="isolated"):
            load({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [5, 5]],
                  "elements": [[0, 1, 2]]})


class TestStar:
    def test_fan(self, fan_mesh):
        assert len(star(fan_mesh, 0)) == 6

    def test_corner(self, right_triangle):
        assert star(right_triangle, 0) == [0]

    def test_adjacency_matches_element_loop(self, rng):
        mesh = delaunay_mesh(40, rng)
        stars = [[] for _ in range(mesh.n_vertices)]
        neighbors = [set() for _ in range(mesh.n_vertices)]
        for e, elem in enumerate(mesh.elements.tolist()):
            for li, v in enumerate(elem):
                stars[v].append((e, li))
                neighbors[v].update(u for u in elem if u != v)
        assert mesh.stars == stars
        assert mesh.neighbors == [sorted(s) for s in neighbors]


class TestPrecompute:
    def test_right_triangle_altitudes(self, right_triangle):
        # w = 2*Area/opposite-edge-length with Area = 0.5
        cons = precompute(right_triangle)
        w = cons.altitudes[0]
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(1.0 / math.sqrt(2.0))
        assert w[2] == pytest.approx(1.0)

    def test_omega_is_min_over_star(self):
        # apex at the origin shared by two triangles with altitudes 0.3, 0.2
        mesh = GroundMesh(
            2,
            [[0, 0], [-1, -0.3], [1, -0.3], [-1, 0.2], [1, 0.2]],
            [[0, 1, 2], [0, 3, 4]],
        )
        cons = precompute(mesh)
        assert cons.altitudes[0][0] == pytest.approx(0.3)
        assert cons.altitudes[1][0] == pytest.approx(0.2)
        assert cons.omega[0] == pytest.approx(0.2)

    def test_d2_has_no_face_caps(self, right_triangle):
        cons = precompute(right_triangle)
        assert cons.face_recs is None
        assert cons.face_state_recs is None

    def test_d3_face_caps(self, regular_tet):
        cons = precompute(regular_tet, epsilon=0.1)
        # every vertex of a regular tet projects inside the opposite face,
        # so every face cap is 1 - epsilon
        assert face_caps(cons)[0].tolist() == [0.9] * 4

    def test_omega_brute_force(self, rng):
        for mesh in (delaunay_mesh(30, rng), random_tet_mesh(12, rng)):
            cons = precompute(mesh)
            for v in range(mesh.n_vertices):
                dists = []
                for e, i in mesh.stars[v]:
                    dists.append(refgeo.altitude(mesh.vertices[mesh.elements[e]], i))
                assert cons.omega[v] == pytest.approx(min(dists), rel=1e-12)

    def test_reordering_invariance(self, rng):
        for mesh in (delaunay_mesh(25, rng), random_tet_mesh(12, rng)):
            cons = precompute(mesh)
            vperm = rng.permutation(mesh.n_vertices)
            eperm = rng.permutation(mesh.n_elements)
            inv = np.empty_like(vperm)
            inv[vperm] = np.arange(mesh.n_vertices)
            verts2 = mesh.vertices[vperm]
            elements2 = inv[mesh.elements][eperm]
            mesh2 = GroundMesh(mesh.dim, verts2, elements2)
            cons2 = precompute(mesh2)
            floor = _progress_floors(mesh, 0.1)[1]
            floor2 = _progress_floors(mesh2, 0.1)[1]
            if mesh.dim == 3:
                caps, caps2 = face_caps(cons), face_caps(cons2)
            for new_e, old_e in enumerate(eperm):
                assert cons2.altitudes[new_e] == pytest.approx(
                    cons.altitudes[old_e], rel=1e-12
                )
                if mesh.dim == 3:
                    assert caps2[new_e] == pytest.approx(caps[old_e],
                                                         rel=1e-12)
            for old_v in range(mesh.n_vertices):
                assert cons2.omega[inv[old_v]] == pytest.approx(
                    cons.omega[old_v], rel=1e-12
                )
                assert floor2[inv[old_v]] == pytest.approx(
                    floor[old_v], rel=1e-12
                )

    def test_inverse_omega_sum_reproducible(self, right_triangle):
        a = precompute(right_triangle).inverse_omega_sum
        b = precompute(right_triangle).inverse_omega_sum
        assert a == b
        assert math.isfinite(a)
        assert a == pytest.approx(2.0 + math.sqrt(2.0))

    def test_epsilon_guard(self, right_triangle):
        with pytest.raises(ValueError):
            precompute(right_triangle, epsilon=0.0)
        with pytest.raises(ValueError):
            precompute(right_triangle, epsilon=0.7)

    def test_speed_scaled_floor(self):
        mesh = GroundMesh(2, [[0, 1], [0, 0], [1, 0]], [[0, 1, 2]],
                          speeds=[2.0])
        omega_speed, floor = _progress_floors(mesh, 0.1)
        assert omega_speed[0] == pytest.approx(precompute(mesh).omega[0] / 2.0)
        assert floor[0] == omega_speed[0]


def _reference_constants(mesh, epsilon):
    """The records precompute documents, built element by element from the
    first-principles scalar geometry (least-squares feet, altitudes and
    clearance ratios)."""
    d = mesh.dim
    ref = {"altitudes": [], "cone_recs": [], "slope_recs": [],
           "face_recs": [], "face_state_recs": []}
    face_floor = np.full(mesh.n_vertices, np.inf)

    def edge_record(p, a, b):
        # foot of p on the line ab as (beta, 1/|ab|, distance)
        foot, bary = refgeo.foot(p, [a, b])
        return (bary[1], 1.0 / float(np.linalg.norm(b - a)),
                float(np.linalg.norm(p - foot)))

    for e, ids in enumerate(mesh.elements.tolist()):
        X = mesh.vertices[ids]
        alt = [refgeo.altitude(X, i) for i in range(d + 1)]
        ref["altitudes"].append(alt)
        opp = [[x for x in range(d + 1) if x != i] for i in range(d + 1)]
        if d == 1:
            ref["cone_recs"].append([(ids[1], alt[0]), (ids[0], alt[1])])
            ref["slope_recs"].append((ids[0], ids[1], 1.0 / alt[0]))
            continue
        if d == 2:
            recs = [(ids[o[0]], ids[o[1]]) + edge_record(X[i], *X[o])
                    for i, o in enumerate(opp)]
            ref["cone_recs"].append(recs)
            h = refgeo.gram_inverse(X)
            ref["slope_recs"].append(
                (ids[0], ids[1], ids[2], h[0, 0], h[0, 1], h[1, 1]))
            continue
        kap = [(1.0 - epsilon) * refgeo.clearance(X[i], X[opp[i]])
               for i in range(4)]
        cone, faces = [], []
        for i, o in enumerate(opp):
            facet = X[o]
            foot, _ = refgeo.foot(X[i], facet)
            h = refgeo.gram_inverse(facet)
            b = (facet[1:] - facet[0]) @ (foot - facet[0])
            cone.append((ids[o[0]], ids[o[1]], ids[o[2]],
                         h[0, 0], h[0, 1], h[1, 1], b[0], b[1], alt[i]))
            frecs = []
            for l in o:
                j, k = [x for x in opp[l] if x != i]
                beta, inv_len, wf = edge_record(X[i], X[j], X[k])
                frecs.append((ids[j], ids[k], beta, inv_len, wf, kap[l]))
                face_floor[ids[i]] = min(face_floor[ids[i]],
                                         kap[l] * wf / mesh.speeds[e])
            faces.append(frecs)
        ref["cone_recs"].append(cone)
        ref["face_recs"].append(faces)
        ref["slope_recs"].append((tuple(ids), refgeo.gram_inverse(X)))
        states = []
        for l, o in enumerate(opp):
            face = X[o]
            h = refgeo.gram_inverse(face)
            ws = [refgeo.altitude(face, p) for p in range(3)]
            states.append((ids[o[0]], ids[o[1]], ids[o[2]],
                           h[0, 0], h[0, 1], h[1, 1], kap[l], ws))
        ref["face_state_recs"].append(states)

    alt = np.array(ref["altitudes"])
    ref["altitudes"] = alt
    ref["omega"] = np.array([min(alt[e, li] for e, li in mesh.stars[v])
                             for v in range(mesh.n_vertices)])
    ref["omega_speed"] = np.array([
        min(alt[e, li] / mesh.speeds[e] for e, li in mesh.stars[v])
        for v in range(mesh.n_vertices)
    ])
    ref["progress_floor"] = np.minimum(ref["omega_speed"], face_floor)
    if d < 3:
        ref["face_recs"] = ref["face_state_recs"] = None
    return ref


def _assert_records_close(got, want, path):
    if want is None:
        assert got is None, path
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for n, (g, w) in enumerate(zip(got, want)):
            _assert_records_close(g, w, f"{path}[{n}]")
    elif isinstance(want, int):
        assert type(got) is int and got == want, path
    else:
        assert np.asarray(got, dtype=float) == pytest.approx(
            np.asarray(want, dtype=float), rel=1e-12), path


def _speedy_mesh(dim, rng):
    """A random mesh of dimension dim with random wave speeds."""
    if dim == 1:
        base = path_mesh_1d(np.cumsum(rng.uniform(0.2, 1.0, size=9)))
    elif dim == 2:
        base = delaunay_mesh(40, rng)
    else:
        base = random_tet_mesh(12, rng)
    return GroundMesh(dim, base.vertices, base.elements,
                      speeds=rng.uniform(0.5, 2.0, size=base.n_elements))


# the reference entries that precompute does not hold: the verifier
# derives them itself
FLOORS = ("omega_speed", "progress_floor")


class TestBatchedRecords:
    """precompute's array code against a per-element reference."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_field_matches_reference(self, dim, rng):
        mesh = _speedy_mesh(dim, rng)
        cons = precompute(mesh, epsilon=0.2)
        ref = _reference_constants(mesh, 0.2)
        if dim == 3:
            # the clearance branch outside the facet must be exercised
            assert np.any(face_caps(cons) < 1.0 - 0.2)
        for name, want in ref.items():
            if name not in FLOORS:
                _assert_records_close(getattr(cons, name), want, name)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_verifier_floors_match_reference(self, dim, rng):
        mesh = _speedy_mesh(dim, rng)
        ref = _reference_constants(mesh, 0.2)
        for name, got in zip(FLOORS, _progress_floors(mesh, 0.2)):
            assert got == pytest.approx(ref[name], rel=1e-12), name
        if dim == 3:
            # some face floors bind
            assert np.any(ref["progress_floor"] < ref["omega_speed"])

