"""Output space-time mesh: vertices, elements, patches, causal order.

The mesh keeps what the lift loop makes: the vertices, the elements, the
ground vertex each patch lifts and the current front, one vertex tuple
per ground element.  With n ground vertices, four rules give the rest:

1. patch p's apex is vertex n + p;
2. its elements follow patch p-1's, one per element of its vertex's
   star, in star order;
3. an element's inflow facet is the element without its apex, with the
   patch's base in the lifted slot; its outflow facet has the apex in
   that slot;
4. a facet's producer is its largest vertex id minus n, or -1 when every
   vertex is initial.

patch_records applies them one patch at a time, for the writer and
mesh.patches; mesh_arrays applies them in whole-array steps, for the
verifier.

Patches are numbered in creation order, which is by construction a
linear extension of the inter-patch dependency order: every inflow facet
of a patch was produced either by the initial front or by a strictly
earlier patch.  The verifier re-checks this rather than trusting it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .ground_mesh import GroundMesh


class Facet(NamedTuple):
    """One front facet of a ground element at some stage of the run.

    vertices are space-time vertex ids in the ground element's local order;
    producer is the patch id that created the facet, or -1 for the initial
    front.
    """

    ground_element: int
    vertices: tuple[int, ...]
    producer: int


@dataclass(slots=True)
class Patch:
    """One tent: every element shares the edge from base to apex vertex."""

    id: int
    vertex: int                      # lifted ground vertex
    base: int                        # space-time id of the old position
    apex: int                        # space-time id of the new position
    elements: list[int]
    inflow: list[Facet]
    outflow: list[Facet]


class SpaceTimeMesh:
    """Accumulated (d+1)-dimensional simplicial mesh grouped into patches,
    starting from the ground vertices at the given times."""

    def __init__(self, ground: GroundMesh, times):
        self.ground = ground
        # the ground coordinates as floats, shared by every vertex row
        self._coords: list[list[float]] = ground.vertices.tolist()
        self.vertices: list[tuple[float, ...]] = [     # (*space, time)
            (*xs, float(t)) for xs, t in zip(self._coords, times)]
        self.elements: list[tuple[int, ...]] = []
        self.patch_vertex: list[int] = []
        self.front: list[tuple[int, ...]] = list(
            map(tuple, ground.elements.tolist()))
        self.build_seconds: float = 0.0

    def add_vertex(self, ground_vertex: int, time: float) -> int:
        self.vertices.append((*self._coords[ground_vertex], float(time)))
        return len(self.vertices) - 1

    def times_array(self) -> np.ndarray:
        return np.array([v[-1] for v in self.vertices])

    @property
    def patches(self) -> list[Patch]:
        return list(patch_records(self))

    @property
    def initial_facets(self) -> list[Facet]:
        elements = map(tuple, self.ground.elements.tolist())
        return [Facet(e, verts, -1) for e, verts in enumerate(elements)]

    @property
    def frontier(self) -> list[Facet]:
        n = self.ground.n_vertices
        return [Facet(e, verts, max(max(verts) - n, -1))
                for e, verts in enumerate(self.front)]


def patch_records(mesh: SpaceTimeMesh) -> Iterator[Patch]:
    """The patches of a mesh in id order, each built by the four rules
    when its turn comes."""
    n, stars, elements = mesh.ground.n_vertices, mesh.ground.stars, mesh.elements
    first = 0
    for pid, v in enumerate(mesh.patch_vertex):
        apex, star = n + pid, stars[v]
        end = first + len(star)
        inflow, outflow = [], []
        for (e, li), element in zip(star, elements[first:end]):
            verts = element[1:]
            inflow.append(Facet(e, verts, max(max(verts) - n, -1)))
            outflow.append(Facet(e, verts[:li] + (apex,) + verts[li + 1:], pid))
        base = inflow[0].vertices[star[0][1]]
        yield Patch(pid, v, base, apex, list(range(first, end)), inflow,
                    outflow)
        first = end


def element_patch(mesh: SpaceTimeMesh) -> Iterator[int]:
    """The patch of each element, in element order."""
    stars = mesh.ground.stars
    return chain.from_iterable(repeat(pid, len(stars[v]))
                               for pid, v in enumerate(mesh.patch_vertex))


@dataclass(eq=False)
class MeshArrays:
    """A space-time mesh as int and float columns: what the verifier reads.

    Facet rows are grouped as in the space-time JSON file: the initial
    facets, the frontier, then each patch's inflow and outflow facets;
    facet_groups holds the 2 + 2P group sizes in that order.
    """

    ground: GroundMesh
    vertices: np.ndarray          # (n, d+1) float: *space, time
    vertex_ground: np.ndarray     # ground vertex under each vertex
    elements: np.ndarray          # (m, d+2) vertex ids
    element_patch: np.ndarray     # patch of each element
    patch_id: np.ndarray          # (P,) columns of the patches
    patch_vertex: np.ndarray
    patch_base: np.ndarray
    patch_apex: np.ndarray
    patch_elements: np.ndarray    # the patches' element lists, flat
    patch_sizes: np.ndarray       # (P,) length of each element list
    facet_element: np.ndarray     # (F,) ground element of each facet
    facet_vertices: np.ndarray    # (F, d+1) vertex ids
    facet_producer: np.ndarray    # (F,) patch id, or -1
    facet_groups: np.ndarray      # (2 + 2P,) sizes of the facet groups


def mesh_arrays(mesh: SpaceTimeMesh) -> MeshArrays:
    """The columns of an in-memory mesh, laid out as the space-time JSON
    reader lays out those of a file, by the four rules in whole-array
    steps."""
    ground = mesh.ground
    d, n, n_el = ground.dim, ground.n_vertices, ground.n_elements
    vertex = np.array(mesh.patch_vertex, dtype=np.int64)
    pids = np.arange(len(vertex))
    elements = np.array(mesh.elements, dtype=np.int64).reshape(-1, d + 2)
    m = len(elements)
    offsets = ground.star_offsets
    sizes = offsets[vertex + 1] - offsets[vertex]
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(pids, sizes)
    # element k of its patch lies over star row offsets[v] + k of its vertex
    star = np.arange(m) + (offsets[vertex] - first)[owner]
    slot = ground.star_locals[star]
    # the initial facets, the frontier, then each patch's inflow and
    # outflow facets
    inflow = 2 * n_el + np.arange(m) + first[owner]
    outflow = inflow + sizes[owner]
    facets = np.empty((2 * n_el + 2 * m, d + 1), dtype=np.int64)
    facets[:n_el] = ground.elements
    facets[n_el:2 * n_el] = mesh.front
    facets[inflow] = facets[outflow] = elements[:, 1:]
    facets[outflow, slot] = elements[:, 0]
    on = np.empty(len(facets), dtype=np.int64)
    on[:n_el] = on[n_el:2 * n_el] = np.arange(n_el)
    on[inflow] = on[outflow] = ground.star_elements[star]
    return MeshArrays(
        ground=ground,
        vertices=np.array(mesh.vertices, dtype=float).reshape(-1, d + 1),
        vertex_ground=np.concatenate([np.arange(n), vertex]),
        elements=elements,
        element_patch=owner,
        patch_id=pids,
        patch_vertex=vertex,
        patch_base=elements[first, 1 + slot[first]],
        patch_apex=n + pids,
        patch_elements=np.arange(m),
        patch_sizes=sizes,
        facet_element=on,
        facet_vertices=facets,
        facet_producer=np.maximum(facets.max(axis=1) - n, -1),
        facet_groups=np.concatenate([[n_el, n_el], np.repeat(sizes, 2)]),
    )


@dataclass
class MeshStats:
    patches: int
    elements: int
    vertices: int
    duration_min: float
    duration_max: float
    duration_mean: float
    duration_ratio: float
    patch_size_histogram: dict[int, int]
    build_seconds: float
    elements_per_second: float

    def to_dict(self) -> dict:
        return {
            "patches": self.patches,
            "elements": self.elements,
            "vertices": self.vertices,
            "duration_min": self.duration_min,
            "duration_max": self.duration_max,
            "duration_mean": self.duration_mean,
            "duration_ratio": self.duration_ratio,
            "patch_size_histogram": {str(k): v for k, v in
                                     sorted(self.patch_size_histogram.items())},
            "seconds": self.build_seconds,
            "elements_per_second": self.elements_per_second,
        }


def element_durations(mesh: SpaceTimeMesh) -> np.ndarray:
    """Time extent (latest minus earliest vertex time) of every element,
    from one (m, d+2) gather of the vertex times."""
    if not mesh.elements:
        return np.zeros(0)
    et = mesh.times_array()[np.array(mesh.elements)]
    return et.max(axis=1) - et.min(axis=1)


def stats(mesh: SpaceTimeMesh) -> MeshStats:
    """Summary counts and element-duration spread of a finished mesh."""
    durations = element_durations(mesh)
    n_el = len(mesh.elements)
    stars = mesh.ground.stars
    hist = dict(Counter(len(stars[v]) for v in mesh.patch_vertex))
    dmin = float(durations.min()) if n_el else 0.0
    dmax = float(durations.max()) if n_el else 0.0
    return MeshStats(
        patches=len(mesh.patch_vertex),
        elements=n_el,
        vertices=len(mesh.vertices),
        duration_min=dmin,
        duration_max=dmax,
        duration_mean=float(durations.mean()) if n_el else 0.0,
        duration_ratio=(dmax / dmin) if n_el and dmin > 0 else 0.0,
        patch_size_histogram=hist,
        build_seconds=mesh.build_seconds,
        elements_per_second=(n_el / mesh.build_seconds)
        if mesh.build_seconds > 0
        else 0.0,
    )
