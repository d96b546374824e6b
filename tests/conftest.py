from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from tentpitch import GroundMesh
from tentpitch.geometry import facet_index
from tentpitch.spacetime import Facet, MeshArrays, Patch


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


def patch_records(mesh) -> list[Patch]:
    """The patches of a mesh in id order, built by the four rules of the
    spacetime module one patch at a time: the reference for mesh.patches
    (spacetime.patch_block, which applies them in whole-array steps)."""
    n, stars, elements = mesh.ground.n_vertices, mesh.ground.stars, mesh.elements
    records, first = [], 0
    for pid, v in enumerate(mesh.patch_vertex):
        apex, star = n + pid, stars[v]
        end = first + len(star)
        inflow, outflow = [], []
        for (e, li), element in zip(star, elements[first:end]):
            verts = element[1:]
            inflow.append(Facet(e, verts, max(max(verts) - n, -1)))
            outflow.append(Facet(e, verts[:li] + (apex,) + verts[li + 1:], pid))
        base = inflow[0].vertices[star[0][1]]
        records.append(Patch(pid, v, base, apex, list(range(first, end)),
                             inflow, outflow))
        first = end
    return records


def frontier_facets(mesh) -> list[Facet]:
    """The mesh's frontier, each facet's producer by rule 4 one facet at a
    time: the reference for mesh.frontier."""
    n = mesh.ground.n_vertices
    return [Facet(e, verts, max(max(verts) - n, -1))
            for e, verts in enumerate(mesh.front)]


def mesh_objects(mesh):
    """A space-time mesh's lists and its derived facets and patch records
    (by the one-at-a-time references above), as plain lists under the
    attribute names of a space-time file, for tests to tamper with: the
    mesh derives its facets and patches afresh on each read.  Each vertex
    past the initial ones lies over the vertex of the patch whose apex it
    is, and each element is in the patch that lists it."""
    patches = patch_records(mesh)
    vertex_ground = list(range(len(mesh.vertices)))
    element_patch = list(range(len(mesh.elements)))
    for p in patches:
        vertex_ground[p.apex] = p.vertex
        for j in p.elements:
            element_patch[j] = p.id
    return SimpleNamespace(
        ground=mesh.ground, vertices=list(mesh.vertices),
        vertex_ground=vertex_ground, elements=list(mesh.elements),
        element_patch=element_patch, initial_facets=mesh.initial_facets,
        frontier=frontier_facets(mesh), patches=patches)


def final_times(mesh) -> list[float]:
    """The time each ground vertex ends a run at, read from the front: its
    place in the first element of its star."""
    return [mesh.vertices[mesh.front[e][li]][-1]
            for (e, li), *_ in mesh.ground.stars]


def _ids(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def reference_arrays(mesh) -> MeshArrays:
    """The columns of a mesh's lists, facets and patch records, laid out
    as the space-time JSON reader lays out those of a file: the layout
    reference for spacetime.mesh_arrays.  Reads those attributes only:
    give it the containers of mesh_objects, whose patch records and
    frontier come from the one-at-a-time references, not the mesh."""
    d = mesh.ground.dim
    patches = list(mesh.patches)
    groups = [mesh.initial_facets, mesh.frontier,
              *chain.from_iterable((p.inflow, p.outflow) for p in patches)]
    facets = list(chain.from_iterable(groups))
    return MeshArrays(
        ground=mesh.ground,
        vertices=np.array(mesh.vertices, dtype=float).reshape(-1, d + 1),
        vertex_ground=_ids(mesh.vertex_ground),
        elements=_ids(mesh.elements).reshape(-1, d + 2),
        element_patch=_ids(mesh.element_patch),
        patch_id=_ids([p.id for p in patches]),
        patch_vertex=_ids([p.vertex for p in patches]),
        patch_base=_ids([p.base for p in patches]),
        patch_apex=_ids([p.apex for p in patches]),
        patch_elements=_ids(list(chain.from_iterable(
            p.elements for p in patches))),
        patch_sizes=_ids([len(p.elements) for p in patches]),
        facet_element=_ids([f.ground_element for f in facets]),
        facet_vertices=_ids([f.vertices for f in facets]).reshape(-1, d + 1),
        facet_producer=_ids([f.producer for f in facets]),
        facet_groups=_ids(list(map(len, groups))),
    )


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
