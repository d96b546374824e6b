"""File formats: .node/.ele ground meshes, JSON meshes, space-time JSON,
legacy-VTK export, trace and stats files.

All outputs are ASCII and byte-deterministic for a fixed input; reals are
written with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MeshValidationError, ParseError
from .ground_mesh import GroundMesh
from .pitcher import RunTrace
from .spacetime import Facet, Patch, SpaceTimeMesh


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj, out: list[str]) -> None:
    """Deterministic JSON writer with 17-significant-digit floats."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _dump(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _dump(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    out: list[str] = []
    _dump(obj, out)
    out.append("\n")
    return "".join(out)


# -- .node / .ele ------------------------------------------------------------


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _token(tokens, pos, lineno, name, kind=float):
    try:
        return kind(tokens[pos])
    except (IndexError, ValueError):
        raise ParseError(
            f"{name} line {lineno}: expected {kind.__name__} at column {pos + 1}"
        ) from None


def parse_triangle(node_text: str, ele_text: str) -> dict:
    """Parse the community .node/.ele pair into a raw json-mesh dict (d=2).

    Indexing base (0 or 1) is taken from the first listed vertex index; an
    optional first triangle attribute is read as the per-element wave speed.
    """
    node_lines = list(_data_lines(node_text))
    if not node_lines:
        raise ParseError("node line 1: empty file")
    lineno, header = node_lines[0]
    n_pts = _token(header, 0, lineno, "node", int)
    dim = _token(header, 1, lineno, "node", int)
    if dim != 2:
        raise ParseError(f"node line {lineno}: dimension {dim} unsupported (need 2)")
    if len(node_lines) - 1 != n_pts:
        raise ParseError(
            f"node line {lineno}: header promises {n_pts} vertices, "
            f"found {len(node_lines) - 1}"
        )
    base = None
    vertices = []
    for lineno, tokens in node_lines[1:]:
        idx = _token(tokens, 0, lineno, "node", int)
        if base is None:
            base = idx
            if base not in (0, 1):
                raise ParseError(
                    f"node line {lineno}: first vertex index must be 0 or 1"
                )
        x = _token(tokens, 1, lineno, "node")
        y = _token(tokens, 2, lineno, "node")
        vertices.append([x, y])

    ele_lines = list(_data_lines(ele_text))
    if not ele_lines:
        raise ParseError("ele line 1: empty file")
    lineno, header = ele_lines[0]
    n_tri = _token(header, 0, lineno, "ele", int)
    per = _token(header, 1, lineno, "ele", int)
    n_attr = _token(header, 2, lineno, "ele", int) if len(header) > 2 else 0
    if per != 3:
        raise ParseError(f"ele line {lineno}: {per} nodes per triangle unsupported")
    if len(ele_lines) - 1 != n_tri:
        raise ParseError(
            f"ele line {lineno}: header promises {n_tri} triangles, "
            f"found {len(ele_lines) - 1}"
        )
    elements = []
    speeds = [] if n_attr >= 1 else None
    for lineno, tokens in ele_lines[1:]:
        tri = [_token(tokens, c, lineno, "ele", int) - base for c in (1, 2, 3)]
        for v in tri:
            if not 0 <= v < n_pts:
                raise ParseError(f"ele line {lineno}: vertex index out of range")
        elements.append(tri)
        if speeds is not None:
            speeds.append(_token(tokens, 4, lineno, "ele"))
    raw = {"dim": 2, "vertices": vertices, "elements": elements}
    if speeds is not None:
        raw["speeds"] = speeds
    return raw


# -- json mesh ----------------------------------------------------------------


def parse_json_mesh(text: str) -> dict:
    """Parse and validate the json-mesh schema, reporting the JSON path of
    any violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("$: mesh description must be an object")
    if "dim" not in data:
        raise ParseError("$.dim: missing")
    dim = data["dim"]
    # bool is a subclass of int, but `true` is not a dimension
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2, 3):
        raise ParseError(f"$.dim: unsupported dimension {dim!r} (need 1, 2 or 3)")
    for key in ("vertices", "elements"):
        if key not in data or not isinstance(data[key], list):
            raise ParseError(f"$.{key}: missing or not an array")
    for i, v in enumerate(data["vertices"]):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"$.vertices[{i}]: expected {dim} coordinates")
        for j, x in enumerate(v):
            if not isinstance(x, (int, float)):
                raise ParseError(f"$.vertices[{i}][{j}]: not a number")
    for i, el in enumerate(data["elements"]):
        if not isinstance(el, list) or len(el) != dim + 1:
            raise ParseError(f"$.elements[{i}]: expected {dim + 1} vertex indices")
        for j, x in enumerate(el):
            if not isinstance(x, int):
                raise ParseError(f"$.elements[{i}][{j}]: not an integer")
    for key in ("speeds", "initial_times"):
        if key in data:
            arr = data[key]
            if not isinstance(arr, list):
                raise ParseError(f"$.{key}: not an array")
            for i, x in enumerate(arr):
                if not isinstance(x, (int, float)):
                    raise ParseError(f"$.{key}[{i}]: not a number")
    return {
        "dim": dim,
        "vertices": data["vertices"],
        "elements": data["elements"],
        "speeds": data.get("speeds"),
        "initial_times": data.get("initial_times"),
    }


def write_json_mesh(mesh: GroundMesh) -> str:
    payload = {
        "dim": mesh.dim,
        "vertices": mesh.vertices,
        "elements": mesh.elements,
        "speeds": mesh.speeds,
    }
    if mesh.initial_times is not None:
        payload["initial_times"] = mesh.initial_times
    return dumps(payload)


# -- reading parsed JSON ---------------------------------------------------------

# what converting parsed JSON raises on a missing or mistyped field
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


class _Tracked:
    """Stand-in for parsed JSON that records the path of the last field
    read, so that a failed conversion re-run on it can name that field."""

    def __init__(self, value, path: str, last: list):
        self._value, self._path, self._last = value, path, last

    def _child(self, value, path: str):
        self._last[0] = path
        if isinstance(value, (dict, list)):
            return _Tracked(value, path, self._last)
        return value

    def __getitem__(self, key):
        if isinstance(self._value, list):
            path = f"{self._path}[{key}]"
        else:
            path = f"{self._path}.{key}"
        self._last[0] = path
        return self._child(self._value[key], path)

    def get(self, key, default=None):
        return self[key] if key in self._value else default

    def __iter__(self):
        for i, item in enumerate(self._value):
            yield self._child(item, f"{self._path}[{i}]")


def _load_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("$: not an object")
    return data


def _convert(convert, data: dict, *args):
    """convert(data, *args); a missing or malformed field becomes a
    ParseError naming its JSON path, found by re-running the conversion on
    a path-recording stand-in (so a good file never pays for it)."""
    try:
        return convert(data, *args)
    except (ParseError, MeshValidationError):
        raise
    except _MALFORMED as exc:
        error = exc
    last = ["$"]
    try:
        convert(_Tracked(data, "$", last), *args)
    except _MALFORMED as exc:
        error = exc
    what = "missing" if isinstance(error, (KeyError, IndexError)) else "malformed"
    raise ParseError(f"{last[0]}: {what}") from None


# -- space-time mesh json ------------------------------------------------------


def _facet_to_list(f: Facet):
    return [f.ground_element, list(f.vertices), f.producer]


def _facet_from_list(data) -> Facet:
    return Facet(int(data[0]), tuple(map(int, data[1])), int(data[2]))


def write_spacetime_json(mesh: SpaceTimeMesh) -> str:
    payload = {
        "format": "tentpitch-stmesh",
        "ground_dim": mesh.ground.dim,
        "vertices": [list(v) for v in mesh.vertices],
        "vertex_ground": mesh.vertex_ground,
        "elements": [list(e) for e in mesh.elements],
        "element_patch": mesh.element_patch,
        "initial_facets": [_facet_to_list(f) for f in mesh.initial_facets],
        "frontier": [_facet_to_list(f) for f in mesh.frontier],
        "patches": [
            {
                "id": p.id,
                "vertex": p.vertex,
                "base": p.base,
                "apex": p.apex,
                "elements": p.elements,
                "inflow": [_facet_to_list(f) for f in p.inflow],
                "outflow": [_facet_to_list(f) for f in p.outflow],
            }
            for p in mesh.patches
        ],
    }
    return dumps(payload)


def _spacetime_from_dict(data, ground: GroundMesh) -> SpaceTimeMesh:
    if data.get("format") != "tentpitch-stmesh":
        raise ParseError("$.format: not a tentpitch space-time mesh file")
    if data["ground_dim"] != ground.dim:
        raise MeshValidationError(
            f"space-time mesh has ground dimension {data['ground_dim']}, "
            f"ground mesh has {ground.dim}"
        )
    mesh = SpaceTimeMesh(ground)
    mesh.vertices = [tuple(map(float, v)) for v in data["vertices"]]
    mesh.vertex_ground = list(map(int, data["vertex_ground"]))
    mesh.elements = [tuple(map(int, e)) for e in data["elements"]]
    mesh.element_patch = list(map(int, data["element_patch"]))
    mesh.initial_facets = list(map(_facet_from_list, data["initial_facets"]))
    mesh.frontier = list(map(_facet_from_list, data["frontier"]))
    mesh.current_vertex = list(range(ground.n_vertices))
    for p in data["patches"]:
        patch = Patch(
            id=int(p["id"]),
            vertex=int(p["vertex"]),
            base=int(p["base"]),
            apex=int(p["apex"]),
            elements=list(map(int, p["elements"])),
            inflow=list(map(_facet_from_list, p["inflow"])),
            outflow=list(map(_facet_from_list, p["outflow"])),
        )
        mesh.patches.append(patch)
        mesh.current_vertex[patch.vertex] = patch.apex
    return mesh


def read_spacetime_json(text: str, ground: GroundMesh) -> SpaceTimeMesh:
    return _convert(_spacetime_from_dict, _load_object(text), ground)


# -- trace json -----------------------------------------------------------------


def write_trace_json(trace: RunTrace) -> str:
    payload = trace.to_dict()
    del payload["build_seconds"]  # wall clock; kept out for byte determinism
    return dumps(payload)


def read_trace_json(text: str) -> RunTrace:
    return _convert(RunTrace.from_dict, _load_object(text))


# -- legacy VTK export -----------------------------------------------------------


def write_vtk(mesh: SpaceTimeMesh, title: str = "space-time mesh") -> str:
    """Legacy-VTK ASCII unstructured grid of the space-time mesh.

    d = 2 ground meshes export as tetrahedra (x, y, t); d = 1 as triangles
    (x, t, 0).  Cell data carries the owning patch id and the element's
    time extent.  4-dimensional elements (d = 3) cannot be exported.
    """
    d = mesh.ground.dim
    if d == 3:
        raise ValueError("cannot export 4-dimensional space-time elements to VTK")
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(mesh.vertices)} double",
    ]
    for v in mesh.vertices:
        if d == 2:
            x, y, t = v
            lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(t)}")
        else:
            x, t = v
            lines.append(f"{_fmt(x)} {_fmt(t)} 0")
    n_el = len(mesh.elements)
    per = d + 2
    lines.append(f"CELLS {n_el} {n_el * (per + 1)}")
    for e in mesh.elements:
        lines.append(f"{per} " + " ".join(str(v) for v in e))
    lines.append(f"CELL_TYPES {n_el}")
    cell_type = "10" if d == 2 else "5"
    lines.extend([cell_type] * n_el)
    lines.append(f"CELL_DATA {n_el}")
    lines.append("SCALARS patch_id int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(p) for p in mesh.element_patch)
    lines.append("SCALARS duration double 1")
    lines.append("LOOKUP_TABLE default")
    times = mesh.times_array()
    for e in mesh.elements:
        ts = times[list(e)]
        lines.append(_fmt(float(ts.max() - ts.min())))
    return "\n".join(lines) + "\n"
