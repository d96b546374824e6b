"""Output space-time mesh: vertices, elements, patches, causal order.

The mesh keeps what the lift loop makes: times, a flat array of doubles
(the n initial times, then each patch's apex time); elements, a flat
int64 array of d + 2 vertex ids per element, apex first; the ground
vertex each patch lifts; and the front, one vertex tuple per ground
element.  Four rules give the rest:

1. patch p's apex is vertex n + p, over ground vertex patch_vertex[p]
   (vertex i < n is over ground vertex i), so a vertex row is that ground
   vertex's coordinates beside the vertex's time;
2. its elements follow patch p-1's, one per element of its vertex's
   star, in star order;
3. an element's inflow facet is the element without its apex, with the
   patch's base in the lifted slot; its outflow facet has the apex in
   that slot;
4. a facet's producer is its largest vertex id minus n, or -1 when every
   vertex is initial.

vertex_rows is rule 1 and facet_producer rule 4; patch_block applies the
rules to a range of patches in whole-array steps.  The writers call them
a chunk at a time, mesh_arrays (for the verifier) and mesh.patches once.
A reader's numpy views of the buffers die with the call: an array cannot
grow while a view of it lives.

RunTrace holds a run's lifts, one LiftRecord each: pitcher.run records
them, the trace file stores them and the verifier replays them.

Patches are numbered in creation order, which is by construction a
linear extension of the inter-patch dependency order: every inflow facet
of a patch was produced either by the initial front or by a strictly
earlier patch.  The verifier re-checks this rather than trusting it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import accumulate, chain, repeat
from typing import NamedTuple, Optional

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


@dataclass(slots=True)
class LiftRecord:
    vertex: int
    old_time: float
    new_time: float
    kind: str
    element: Optional[int]
    face: Optional[tuple[int, ...]]
    patch: int


@dataclass
class RunTrace:
    """Everything the verifier needs to replay and re-check a run."""

    epsilon: float
    target_time: float
    tolerance: float
    strategy: str
    seed: int
    initial_times: list[float]
    lifts: list[LiftRecord] = field(default_factory=list)


class SpaceTimeMesh:
    """Accumulated (d+1)-dimensional simplicial mesh grouped into patches,
    starting from the ground vertices at the given times."""

    def __init__(self, ground: GroundMesh, times):
        self.ground = ground
        self.times = array("d", times)
        self.elements = array("q")
        self.patch_vertex: list[int] = []
        self.front: list[tuple[int, ...]] = list(
            map(tuple, ground.elements.tolist()))
        self.build_seconds: float = 0.0

    @property
    def n_elements(self) -> int:
        return len(self.elements) // (self.ground.dim + 2)

    def vertex_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """(*space, time) rows of vertices start to stop - 1 (or the last), by rule 1."""
        n = self.ground.n_vertices
        stop = len(self.times) if stop is None else stop
        over = np.concatenate([np.arange(start, min(stop, n)), np.array(
            self.patch_vertex[max(start - n, 0):max(stop - n, 0)], np.int64)])
        return np.column_stack([self.ground.vertices[over],
                                np.frombuffer(self.times[start:stop])])

    @property
    def patches(self) -> list[Patch]:
        c = {k: v.tolist() for k, v in patch_block(self).items()}
        f = list(map(Facet, c["facet_element"], map(tuple, c["facet_vertices"]),
                     c["facet_producer"]))
        ends = list(accumulate(c["patch_sizes"]))
        heads = zip(c["patch_id"], c["patch_vertex"], c["patch_base"], c["patch_apex"])
        return [Patch(*h, list(range(a, z)), f[2 * a:a + z], f[a + z:2 * z])
                for h, a, z in zip(heads, [0, *ends], ends)]

    @property
    def initial_facets(self) -> list[Facet]:
        elements = map(tuple, self.ground.elements.tolist())
        return [Facet(e, verts, -1) for e, verts in enumerate(elements)]

    @property
    def frontier(self) -> list[Facet]:
        producers = facet_producer(np.array(self.front), self.ground.n_vertices)
        return list(map(Facet, range(len(self.front)), self.front,
                        producers.tolist()))


def facet_producer(facets: np.ndarray, n: int) -> np.ndarray:
    """Rule 4, for rows of facet vertex ids."""
    return np.maximum(facets.max(axis=1) - n, -1)


def patch_block(mesh: SpaceTimeMesh, start: int = 0, stop: int | None = None,
                first: int = 0) -> dict:
    """The MeshArrays columns of patches start to stop - 1 (by default, to the
    last), whose first element is first: elements, element_patch, patch_* but
    patch_elements, and facet_* of each patch's inflow, then outflow facets."""
    ground = mesh.ground
    d, n = ground.dim, ground.n_vertices
    vertex = np.array(mesh.patch_vertex[start:stop], dtype=np.int64)
    pids = np.arange(start, start + len(vertex))
    offsets = ground.star_offsets
    sizes = offsets[vertex + 1] - offsets[vertex]
    m = int(sizes.sum())
    elements = np.frombuffer(mesh.elements[first * (d + 2):(first + m) * (d + 2)],
                             np.int64).reshape(-1, d + 2)
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(vertex)), sizes)
    # element k of its patch lies over star row offsets[v] + k of its vertex
    star = np.arange(m) + (offsets[vertex] - starts)[owner]
    slot = ground.star_locals[star]
    inflow = np.arange(m) + starts[owner]
    outflow = inflow + sizes[owner]
    facets = np.empty((2 * m, d + 1), dtype=np.int64)
    facets[inflow] = facets[outflow] = elements[:, 1:]
    facets[outflow, slot] = elements[:, 0]
    on = np.empty(2 * m, dtype=np.int64)
    on[inflow] = on[outflow] = ground.star_elements[star]
    return {"elements": elements, "element_patch": pids[owner],
            "patch_id": pids, "patch_vertex": vertex,
            "patch_base": elements[starts, 1 + slot[starts]],
            "patch_apex": n + pids, "patch_sizes": sizes,
            "facet_element": on, "facet_vertices": facets,
            "facet_producer": facet_producer(facets, n)}


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
    reader lays out those of a file: the initial facets and the frontier,
    then the patch_block of every patch."""
    ground = mesh.ground
    n, n_el = ground.n_vertices, ground.n_elements
    c = patch_block(mesh)
    c["facet_element"] = np.concatenate(
        [np.tile(np.arange(n_el), 2), c["facet_element"]])
    c["facet_vertices"] = np.concatenate(
        [ground.elements, np.array(mesh.front, dtype=np.int64), c["facet_vertices"]])
    c["facet_producer"] = facet_producer(c["facet_vertices"], n)
    return MeshArrays(
        ground=ground,
        vertices=mesh.vertex_rows(),
        vertex_ground=np.concatenate([np.arange(n), c["patch_vertex"]]),
        patch_elements=np.arange(len(c["elements"])),
        facet_groups=np.concatenate([[n_el, n_el], np.repeat(c["patch_sizes"], 2)]),
        **c)


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
        """The fields in order; build_seconds is "seconds", the histogram by size."""
        d = {"seconds" if k == "build_seconds" else k: v
             for k, v in asdict(self).items()}
        d["patch_size_histogram"] = {str(k): v for k, v in
                                     sorted(self.patch_size_histogram.items())}
        return d


def element_durations(mesh: SpaceTimeMesh) -> np.ndarray:
    """Time extent (latest minus earliest vertex time) of every element,
    from one (m, d+2) gather of the vertex times."""
    if not mesh.elements:
        return np.zeros(0)
    et = np.frombuffer(mesh.times)[
        np.frombuffer(mesh.elements, np.int64).reshape(-1, mesh.ground.dim + 2)]
    return et.max(axis=1) - et.min(axis=1)


def stats(mesh: SpaceTimeMesh) -> MeshStats:
    """Summary counts and element-duration spread of a finished mesh."""
    durations = element_durations(mesh)
    n_el, seconds, stars = mesh.n_elements, mesh.build_seconds, mesh.ground.stars
    dmin, dmax, dmean = (float(f(durations)) if n_el else 0.0
                         for f in (np.min, np.max, np.mean))
    return MeshStats(
        patches=len(mesh.patch_vertex), elements=n_el, vertices=len(mesh.times),
        duration_min=dmin, duration_max=dmax, duration_mean=dmean,
        duration_ratio=dmax / dmin if dmin > 0 else 0.0,
        patch_size_histogram=dict(Counter(len(stars[v]) for v in mesh.patch_vertex)),
        build_seconds=seconds, elements_per_second=n_el / seconds if seconds > 0 else 0.0,
    )
