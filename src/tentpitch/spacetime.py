"""Output space-time mesh: vertices, elements, patches, causal order.

Patches are stored in creation order, which is by construction a linear
extension of the inter-patch dependency order: every inflow facet of a
patch was produced either by the initial front or by a strictly earlier
patch.  The verifier re-checks this rather than trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
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


# Facet from an (element, vertices, producer) tuple, without the
# Python-level NamedTuple constructor: the pitcher makes one per facet
new_facet = partial(tuple.__new__, Facet)


@dataclass
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
    """Accumulated (d+1)-dimensional simplicial mesh grouped into patches."""

    def __init__(self, ground: GroundMesh):
        self.ground = ground
        self.vertices: list[tuple[float, ...]] = []   # (*space, time)
        self.vertex_ground: list[int] = []
        self.elements: list[tuple[int, ...]] = []
        self.element_patch: list[int] = []
        self.patches: list[Patch] = []
        self.current_vertex: list[int] = []
        self.frontier: list[Facet] = []
        self.initial_facets: list[Facet] = []
        self.build_seconds: float = 0.0

    @classmethod
    def initial(cls, ground: GroundMesh, times) -> "SpaceTimeMesh":
        mesh = cls(ground)
        for v in range(ground.n_vertices):
            coords = ground.vertices[v]
            mesh.vertices.append((*coords.tolist(), float(times[v])))
            mesh.vertex_ground.append(v)
        mesh.current_vertex = list(range(ground.n_vertices))
        for e in range(ground.n_elements):
            facet = Facet(e, tuple(int(x) for x in ground.elements[e]), -1)
            mesh.frontier.append(facet)
        mesh.initial_facets = list(mesh.frontier)
        return mesh

    @property
    def dim(self) -> int:
        return self.ground.dim + 1

    def add_vertex(self, ground_vertex: int, time: float) -> int:
        coords = self.ground.vertices[ground_vertex]
        self.vertices.append((*coords.tolist(), float(time)))
        self.vertex_ground.append(ground_vertex)
        return len(self.vertices) - 1

    def times_array(self) -> np.ndarray:
        return np.array([v[-1] for v in self.vertices])


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


def _ids(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def mesh_arrays(mesh: SpaceTimeMesh) -> MeshArrays:
    """The columns of an in-memory mesh, laid out as the space-time JSON
    reader lays out those of a file."""
    d = mesh.ground.dim
    patches = mesh.patches
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
    hist: dict[int, int] = {}
    for p in mesh.patches:
        size = len(p.elements)
        hist[size] = hist.get(size, 0) + 1
    n_el = len(mesh.elements)
    dmin = float(durations.min()) if n_el else 0.0
    dmax = float(durations.max()) if n_el else 0.0
    return MeshStats(
        patches=len(mesh.patches),
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
