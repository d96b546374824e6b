"""Depth of the patch DAG: the longest chain of patches linked by inflow
facet producers, i.e. the number of sequential steps a patch-at-a-time
solver needs when it solves every ready patch at once.

Usage: python3 bench/dag.py <space-time mesh JSON>
prints {"patches": P, "dag_depth": D} for a file written by
``tentpitch pitch --out``.  Standard library only.
"""

from __future__ import annotations

import json
import sys


def dag_depth(producers_per_patch) -> int:
    """One pass over patches in creation order.  Each item lists the
    producer patch ids of that patch's inflow facets (-1 for the initial
    front).  A producer must be an earlier patch."""
    level: list[int] = []
    for pid, producers in enumerate(producers_per_patch):
        top = 0
        for p in producers:
            if p >= pid:
                raise ValueError(f"patch {pid} consumes a facet of patch {p}")
            if p >= 0 and level[p] > top:
                top = level[p]
        level.append(top + 1)
    return max(level, default=0)


def main(argv) -> int:
    with open(argv[0]) as fh:
        patches = json.load(fh)["patches"]
    depth = dag_depth([f[2] for f in p["inflow"]] for p in patches)
    print(json.dumps({"patches": len(patches), "dag_depth": depth}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
