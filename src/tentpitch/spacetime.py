"""Output space-time mesh: vertices, elements, patches, causal order.

The mesh is kept as columns, which the lift loop appends to: vertices and
their ground vertices, elements with their patch and the producer of
their inflow facet, per patch its vertex, base, apex and first element,
and the current front, one vertex tuple and producer per ground element.
Facets and patch records are derived from these when something reads
them: an element is its patch's apex over its inflow facet, and its
outflow facet is that facet with the apex in place of the base.

Patches are numbered in creation order, which is by construction a
linear extension of the inter-patch dependency order: every inflow facet
of a patch was produced either by the initial front or by a strictly
earlier patch.  The verifier re-checks this rather than trusting it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import sub
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
        self.vertex_ground: list[int] = list(range(ground.n_vertices))
        self.elements: list[tuple[int, ...]] = []
        self.element_patch: list[int] = []
        self.inflow_producer: list[int] = []     # per element, or -1
        self.patch_vertex: list[int] = []
        self.patch_base: list[int] = []
        self.patch_apex: list[int] = []
        self.patch_first: list[int] = []         # first element's id
        self.current_vertex: list[int] = list(range(ground.n_vertices))
        self.front: list[tuple[int, ...]] = list(
            map(tuple, ground.elements.tolist()))
        self.front_producer: list[int] = [-1] * ground.n_elements
        self.build_seconds: float = 0.0

    def add_vertex(self, ground_vertex: int, time: float) -> int:
        self.vertices.append((*self._coords[ground_vertex], float(time)))
        self.vertex_ground.append(ground_vertex)
        return len(self.vertices) - 1

    def times_array(self) -> np.ndarray:
        return np.array([v[-1] for v in self.vertices])

    def patch_row(self, pid: int) -> tuple:
        """Patch pid as (vertex, base, apex, elements, inflow, outflow),
        its facets plain (ground element, vertices, producer) tuples.

        Element k of the patch lies over the k-th pair (e, li) of its
        vertex's star.  Its inflow facet is the element without the apex;
        its outflow facet is that facet with the apex in slot li, where
        the base was.
        """
        v, apex, first = (self.patch_vertex[pid], self.patch_apex[pid],
                          self.patch_first[pid])
        elements, producers = self.elements, self.inflow_producer
        inflow, outflow = [], []
        for k, (e, li) in enumerate(self.ground.stars[v], first):
            verts = elements[k][1:]
            inflow.append((e, verts, producers[k]))
            outflow.append((e, verts[:li] + (apex,) + verts[li + 1:], pid))
        return (v, self.patch_base[pid], apex,
                list(range(first, first + len(inflow))), inflow, outflow)

    @property
    def patches(self) -> "PatchRows":
        return PatchRows(self)

    @property
    def initial_facets(self) -> list[Facet]:
        elements = map(tuple, self.ground.elements.tolist())
        return [Facet(e, verts, -1) for e, verts in enumerate(elements)]

    @property
    def frontier(self) -> list[Facet]:
        return list(map(Facet, count(), self.front, self.front_producer))


class PatchRows(Sequence):
    """The patches of a mesh as Patch records, each built from the mesh's
    columns when it is read.  The mesh holds no reference to this view,
    so the two make no reference cycle."""

    __slots__ = ("_mesh",)

    def __init__(self, mesh: SpaceTimeMesh):
        self._mesh = mesh

    def __len__(self) -> int:
        return len(self._mesh.patch_first)

    def __getitem__(self, pid: int) -> Patch:
        pid = range(len(self))[pid]     # IndexError past either end
        v, base, apex, elements, inflow, outflow = self._mesh.patch_row(pid)
        return Patch(pid, v, base, apex, elements,
                     list(map(Facet._make, inflow)),
                     list(map(Facet._make, outflow)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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
    reader lays out those of a file.  Reads the mesh's lists and its
    derived facets and patch records only, so any object with those
    attributes will do."""
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
    # a patch's elements run from its first to the next patch's first
    firsts = mesh.patch_first
    ends = chain(islice(firsts, 1, None), [n_el])
    hist = dict(Counter(map(sub, ends, firsts)))
    dmin = float(durations.min()) if n_el else 0.0
    dmax = float(durations.max()) if n_el else 0.0
    return MeshStats(
        patches=len(firsts),
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
