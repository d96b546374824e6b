from types import SimpleNamespace

import numpy as np
import pytest

from tentpitch import GroundMesh
from tentpitch.geometry import facet_index


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def right_triangle():
    """The unit right triangle with the lifted-vertex examples: p=(0,1),
    q=(0,0), r=(1,0)."""
    return GroundMesh(2, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])


@pytest.fixture
def equilateral():
    return GroundMesh(
        2,
        [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]],
        [[0, 1, 2]],
    )


@pytest.fixture
def regular_tet():
    return GroundMesh(
        3,
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, np.sqrt(3.0) / 2.0, 0.0],
            [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
        ],
        [[0, 1, 2, 3]],
    )


@pytest.fixture
def fan_mesh():
    """Interior vertex 0 of degree 6 surrounded by a hexagon."""
    verts = [[0.0, 0.0]]
    for k in range(6):
        a = k * np.pi / 3.0
        verts.append([np.cos(a), np.sin(a)])
    tris = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    return GroundMesh(2, verts, tris)


def with_initial_times(mesh, times):
    """The ground mesh again with the given initial times, which the front
    starts from."""
    return GroundMesh(mesh.dim, mesh.vertices, mesh.elements,
                      speeds=mesh.speeds, initial_times=times)


def mesh_objects(mesh):
    """A space-time mesh's lists and its derived facets and patch records,
    as plain lists under the mesh's attribute names, for tests to tamper
    with: the mesh derives its facets and patches afresh on each read."""
    return SimpleNamespace(
        ground=mesh.ground, vertices=list(mesh.vertices),
        vertex_ground=list(mesh.vertex_ground), elements=list(mesh.elements),
        element_patch=list(mesh.element_patch),
        initial_facets=mesh.initial_facets, frontier=mesh.frontier,
        patches=list(mesh.patches))


def random_rigid_motion(rng, d):
    """Random rotation + translation in R^d."""
    a = rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(scale=3.0, size=d)
    return q, shift


def face_caps(cons):
    """(m, 4) cap of the face opposite each vertex of each d = 3 element,
    read back from the face records: face_recs[e][i] holds one record per
    face l in facet_index(3)[i], the faces containing vertex i, and each
    record ends with its face's cap."""
    opp = facet_index(3)
    caps = np.full((len(cons.face_recs), 4), np.nan)
    for e, per_vertex in enumerate(cons.face_recs):
        for i, recs in enumerate(per_vertex):
            for l, rec in zip(opp[i], recs):
                caps[e, l] = rec[-1]
    return caps


def alternating_speed_grid():
    """A jittered 3 x 3 grid whose elements alternate between speeds 1.2
    (even) and 1.5 (odd), so its slope caps are not 1.  The run tables
    key it "d2_speed_schedule" or "schedule": a fixed table of speeds,
    one per element, which keeps their test ids."""
    from tentpitch.synthetic import jittered_grid_mesh

    g = jittered_grid_mesh(3, 3, seed=2)
    return GroundMesh(2, g.vertices, g.elements,
                      speeds=[1.5 if e % 2 else 1.2 for e in range(g.n_elements)])
