"""Write the seeded ground mesh of one benchmark workload.

Usage: python3 bench/gen.py <workload> <seed> <out_dir>

Runs as its own process so that run.py, which spawns and measures the
CLI, never imports numpy, scipy or tentpitch.  Writes
``ground.node``/``ground.ele`` for the d = 2 workloads and ``ground.json``
for kuhn_tet, and prints the ground mesh's size as one JSON line.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from tentpitch import GroundMesh
from tentpitch.synthetic import jittered_grid_mesh, two_scale_mesh


def kuhn_tet_mesh(n: int, jitter: float, seed: int) -> GroundMesh:
    """Kuhn (Freudenthal) split of an n x n x n grid of unit cubes.

    Every cube becomes six tetrahedra, one per permutation of the axes,
    so the mesh has 6 n^3 elements.  Interior vertices move by a seeded
    uniform offset in [-jitter, jitter]^3; boundary vertices stay on the
    boundary plane they lie on.  Each tet is ordered to have positive
    volume.
    """
    rng = np.random.default_rng(seed)
    ax = np.arange(n + 1, dtype=float)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    offset = rng.uniform(-jitter, jitter, size=grid.shape)
    offset[(grid == 0) | (grid == n)] = 0.0
    vertices = (grid + offset).reshape(-1, 3)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    elements = []
    for i, j, k in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            corner = [i, j, k]
            tet = [vid(*corner)]
            for axis in perm:
                corner[axis] += 1
                tet.append(vid(*corner))
            elements.append(tet)
    elements = np.array(elements)
    edges = vertices[elements[:, 1:]] - vertices[elements[:, :1]]
    flip = np.linalg.det(edges) < 0
    elements[flip] = elements[flip][:, [0, 1, 3, 2]]
    edges = vertices[elements[:, 1:]] - vertices[elements[:, :1]]
    volumes = np.linalg.det(edges) / 6.0
    if len(elements) != 6 * n ** 3 or not np.all(volumes > 0):
        raise ValueError("Kuhn split produced a wrong or inverted tetrahedron")
    return GroundMesh(3, vertices, elements)


def signed_area2(vertices, triangles) -> np.ndarray:
    """Twice the signed area of each triangle."""
    p = vertices[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def vertex_omega(vertices, triangles) -> np.ndarray:
    """omega(v): the smallest altitude of v over its incident triangles."""
    p = vertices[triangles]
    opposite = np.stack(
        [np.linalg.norm(p[:, (i + 2) % 3] - p[:, (i + 1) % 3], axis=1)
         for i in range(3)], axis=1)
    altitudes = np.abs(signed_area2(vertices, triangles))[:, None] / opposite
    omega = np.full(len(vertices), np.inf)
    np.minimum.at(omega, triangles.ravel(), altitudes.ravel())
    return omega


# graded_greedy moves each vertex by up to this share of omega(v) per
# axis.  The patch DAG depth follows the smallest altitude: at 2% its
# spread over seeds is 0.02-0.04, at 10% it was 0.13-0.16.
GRADED_JITTER = 0.02


def graded_mesh(seed: int) -> GroundMesh:
    """two_scale_mesh(8.0, seed=0) with every vertex moved by a seeded
    offset of up to GRADED_JITTER * omega(v) per axis.

    The seed moves the vertices but keeps the triangulation.  Re-running
    the Delaunay step per seed instead redraws the slivers of the
    transition band, which moves the patch count by +-12% and the patch
    DAG depth by +-20% from seed to seed.
    """
    base = two_scale_mesh(8.0, 0)
    rng = np.random.default_rng(seed)
    omega = vertex_omega(base.vertices, base.elements)
    offset = rng.uniform(-GRADED_JITTER, GRADED_JITTER, size=base.vertices.shape)
    offset *= omega[:, None]
    vertices = base.vertices + offset
    before = signed_area2(base.vertices, base.elements)
    if not np.all(signed_area2(vertices, base.elements) * before > 0):
        raise ValueError("jitter inverted a triangle")
    return GroundMesh(2, vertices, base.elements)


# name -> seed -> (ground mesh, pitch arguments); epsilon is 0.1 throughout
WORKLOADS = {
    "grid_mis": lambda seed: (
        jittered_grid_mesh(20, 20, seed),
        ["--target-time", "4", "--strategy", "mis"],
    ),
    "graded_greedy": lambda seed: (
        graded_mesh(seed),
        ["--target-time", "1", "--strategy", "greedy"],
    ),
    "kuhn_tet": lambda seed: (
        kuhn_tet_mesh(4, 0.1, seed),
        ["--target-time", "1", "--strategy", "greedy"],
    ),
}


def _g(x) -> str:
    return format(float(x), ".17g")


def write_ground(mesh: GroundMesh, out_dir: Path) -> Path:
    """Write mesh as .node/.ele (d = 2) or json (d = 3); return the path
    the CLI's --input/--ground takes."""
    if mesh.dim == 2:
        node = out_dir / "ground.node"
        node.write_text(
            f"{mesh.n_vertices} 2 0 0\n"
            + "".join(f"{i} {_g(x)} {_g(y)}\n"
                      for i, (x, y) in enumerate(mesh.vertices))
        )
        (out_dir / "ground.ele").write_text(
            f"{mesh.n_elements} 3 0\n"
            + "".join(f"{i} {a} {b} {c}\n"
                      for i, (a, b, c) in enumerate(mesh.elements.tolist()))
        )
        return node
    path = out_dir / "ground.json"
    path.write_text(json.dumps({
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "elements": mesh.elements.tolist(),
    }))
    return path


def main(argv) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    mesh, pitch_args = WORKLOADS[name](seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_ground(mesh, out_dir)
    print(json.dumps({
        "ground": str(path),
        "dim": mesh.dim,
        "vertices": mesh.n_vertices,
        "elements": mesh.n_elements,
        "pitch_args": pitch_args,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
