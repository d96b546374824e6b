"""File formats: .node/.ele ground meshes, JSON meshes, space-time JSON,
legacy-VTK export, trace and stats files.

All outputs are ASCII and byte-deterministic for a fixed input; reals are
written with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from .errors import MeshValidationError, ParseError
from .ground_mesh import GroundMesh
from .pitcher import LiftRecord, RunTrace
from .spacetime import Facet, MeshArrays, SpaceTimeMesh, element_durations


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj, out: list[str]) -> None:
    """Deterministic JSON writer with 17-significant-digit floats.

    Appends one token per scalar and per separator.  Containers are tested
    first; inside an array, a leaf of exact type int or float is written
    in place, without a call per value.  Anything else (bools, None, numpy
    scalars, strings, tuple subclasses such as Facet) goes through the
    branch for its kind.
    """
    append = out.append
    if isinstance(obj, (list, tuple, np.ndarray)):
        append("[")
        sep = False
        for v in obj:
            if sep:
                append(", ")
            sep = True
            kind = type(v)
            if kind is int:
                append(str(v))
            elif kind is float:
                append(format(v, ".17g"))
            else:
                _dump(v, out)
        append("]")
    elif isinstance(obj, dict):
        append("{")
        sep = False
        for k, v in obj.items():
            if sep:
                append(", ")
            sep = True
            append(_quote(str(k)))
            append(": ")
            _dump(v, out)
        append("}")
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif isinstance(obj, (int, np.integer)):
        append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        append(_fmt(obj))
    elif isinstance(obj, str):
        append(_quote(obj))
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


def _check_reals(values: list, path: str) -> None:
    """Raise ParseError unless every entry is a JSON number (not `true` or
    `false`) that a float can hold; an integer literal can be any length."""
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{path}[{i}]: not a number")
        if isinstance(x, int):
            try:
                float(x)
            except OverflowError:
                raise ParseError(
                    f"{path}[{i}]: integer too large for a float") from None


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
        _check_reals(v, f"$.vertices[{i}]")
    n = len(data["vertices"])
    for i, el in enumerate(data["elements"]):
        if not isinstance(el, list) or len(el) != dim + 1:
            raise ParseError(f"$.elements[{i}]: expected {dim + 1} vertex indices")
        for j, x in enumerate(el):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"$.elements[{i}][{j}]: not an integer")
            if not 0 <= x < n:
                raise ParseError(
                    f"$.elements[{i}][{j}]: {x} is out of range [0, {n})")
    for key in ("speeds", "initial_times"):
        if key in data:
            arr = data[key]
            if not isinstance(arr, list):
                raise ParseError(f"$.{key}: not an array")
            _check_reals(arr, f"$.{key}")
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

    def __len__(self):
        return len(self._value)


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


# Bulk checks of parsed JSON columns.  A good column costs a few passes of
# builtins over it; only a bad one is scanned again, for the JSON path of
# its first bad entry (path_of(k) names entry k).

_NUMBER = {int, float}


def _first_bad(values, ok):
    """(position, value) of the first of values that is not ok."""
    return next((k, x) for k, x in enumerate(values) if not ok(x))


def _ints(values, path_of, lo=-math.inf, hi=math.inf):
    """values, each checked to be a JSON integer (not a bool, float or
    string) in [lo, hi)."""
    if values and (set(map(type, values)) != {int}
                   or min(values) < lo or max(values) >= hi):
        _bad_int(values, path_of, lo, hi)
    return values


def _bad_int(values, path_of, lo, hi):
    """Raise ParseError naming the first of values that is not a JSON
    integer in [lo, hi)."""
    k, x = _first_bad(values, lambda x: type(x) is int and lo <= x < hi)
    what = (f"{x} is out of range [{lo}, {hi})" if type(x) is int
            else f"{x!r} is not an integer")
    raise ParseError(f"{path_of(k)}: {what}")


def _int_array(values, path_of, lo: int, hi: int) -> np.ndarray:
    """values as an int64 array, checked as by _ints; numpy reads `true`
    as 1, so the type test runs on values, and the range test on the
    array."""
    if set(map(type, values)) <= {int}:
        try:
            ids = np.array(values, dtype=np.int64)
        except OverflowError:  # past int64, so past [lo, hi) too
            pass
        else:
            if not len(ids) or (ids.min() >= lo and ids.max() < hi):
                return ids
    _bad_int(values, path_of, lo, hi)


def _floats(values, path_of) -> list[float]:
    """values as floats, each checked to be a finite JSON number; integers
    count, since the writers emit 0 for 0.0."""
    if set(map(type, values)) <= _NUMBER:
        try:
            floats = list(map(float, values))
            if all(map(math.isfinite, floats)):
                return floats
        except OverflowError:
            pass
    k, x = _first_bad(values, _finite_number)
    raise ParseError(f"{path_of(k)}: {x!r} is not a finite number")


def _float_array(values, path_of) -> np.ndarray:
    """values as a float array, checked as by _floats (which names the
    first bad entry if the array cannot be built or is not finite)."""
    if set(map(type, values)) <= _NUMBER:
        try:
            reals = np.array(values, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(reals).all():
                return reals
    return np.array(_floats(values, path_of))


def _finite_number(x) -> bool:
    try:
        return type(x) in _NUMBER and math.isfinite(x)
    except OverflowError:
        return False


def _arrays(rows, row_path, width=None) -> None:
    """Check that each row is an array (of width entries, if given)."""
    try:
        lengths = set(map(len, rows))
    except TypeError:
        k, _ = _first_bad(rows, lambda r: hasattr(r, "__len__"))
        raise ParseError(f"{row_path(k)}: not an array") from None
    if width is not None and rows and lengths != {width}:
        k, row = _first_bad(rows, lambda r: len(r) == width)
        raise ParseError(f"{row_path(k)}: {len(row)} entries, "
                         f"expected {width}")


def _flatten(rows, row_path, width=None):
    """The entries of the arrays in rows as one list, and the path_of
    function of that list."""
    _arrays(rows, row_path, width)

    def path_of(j: int) -> str:
        ends = list(accumulate(map(len, rows)))
        k = bisect_right(ends, j)
        return f"{row_path(k)}[{j - ends[k] + len(rows[k])}]"

    return list(chain.from_iterable(rows)), path_of


def _columns(rows, keys) -> list:
    """One column per key over the objects in rows (each row read once)."""
    if not rows:
        return [()] * len(keys)
    return list(zip(*map(itemgetter(*keys), rows)))


def _entry_path(array: str, key: str):
    return lambda k: f"{array}[{k}].{key}"


# -- space-time mesh json ------------------------------------------------------


def _facet_to_list(f: Facet):
    return [f.ground_element, list(f.vertices), f.producer]


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


_PATCH_KEYS = ("id", "vertex", "base", "apex", "elements", "inflow", "outflow")


def _facet_group_path(g: int) -> str:
    """Path of facet group g: the initial facets, the frontier, then each
    patch's inflow and outflow."""
    if g < 2:
        return ("$.initial_facets", "$.frontier")[g]
    return f"$.patches[{(g - 2) // 2}].{('inflow', 'outflow')[g % 2]}"


def _spacetime_from_dict(data, ground: GroundMesh) -> MeshArrays:
    """The mesh's columns, with every id checked to be a JSON integer in
    its range: ground vertices and elements, space-time vertices, elements
    and patches, and -1 or a patch as a facet's producer."""
    if data.get("format") != "tentpitch-stmesh":
        raise ParseError("$.format: not a tentpitch space-time mesh file")
    (ground_dim,) = _ints([data["ground_dim"]], lambda _: "$.ground_dim")
    if ground_dim != ground.dim:
        raise MeshValidationError(
            f"space-time mesh has ground dimension {ground_dim}, "
            f"ground mesh has {ground.dim}"
        )
    d = ground.dim
    vertices = _float_array(*_flatten(
        data["vertices"], "$.vertices[{}]".format, d + 1)).reshape(-1, d + 1)
    n_vertices = len(vertices)
    vertex_ground = _int_array(list(data["vertex_ground"]),
                               "$.vertex_ground[{}]".format,
                               0, ground.n_vertices)
    elements = _int_array(*_flatten(
        data["elements"], "$.elements[{}]".format, d + 2),
        0, n_vertices).reshape(-1, d + 2)
    patches = data["patches"]
    n_patches = len(patches)
    element_patch = _int_array(list(data["element_patch"]),
                               "$.element_patch[{}]".format, 0, n_patches)
    col = dict(zip(_PATCH_KEYS, _columns(patches, _PATCH_KEYS)))
    at = partial(_entry_path, "$.patches")
    patch_id = _int_array(col["id"], at("id"), 0, n_patches)
    patch_vertex = _int_array(col["vertex"], at("vertex"), 0, ground.n_vertices)
    patch_base = _int_array(col["base"], at("base"), 0, n_vertices)
    patch_apex = _int_array(col["apex"], at("apex"), 0, n_vertices)
    patch_elements = _int_array(*_flatten(col["elements"], at("elements")),
                                0, len(elements))

    groups = [data["initial_facets"], data["frontier"],
              *chain.from_iterable(zip(col["inflow"], col["outflow"]))]
    records, path = _flatten(groups, _facet_group_path)
    _arrays(records, path, 3)
    facet_element = _int_array(list(map(itemgetter(0), records)),
                               lambda k: f"{path(k)}[0]", 0, ground.n_elements)
    facet_vertices = _int_array(*_flatten(
        list(map(itemgetter(1), records)), lambda k: f"{path(k)}[1]", d + 1),
        0, n_vertices).reshape(-1, d + 1)
    facet_producer = _int_array(list(map(itemgetter(2), records)),
                                lambda k: f"{path(k)}[2]", -1, n_patches)
    return MeshArrays(
        ground, vertices, vertex_ground, elements, element_patch,
        patch_id, patch_vertex, patch_base, patch_apex, patch_elements,
        _lengths(col["elements"]), facet_element, facet_vertices,
        facet_producer, _lengths(groups))


def _lengths(rows) -> np.ndarray:
    return np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))


def read_spacetime_json(text: str, ground: GroundMesh) -> MeshArrays:
    data = _load_object(text)
    # the conversion reads the parsed tree only: free the text before it
    # builds its columns
    del text
    return _convert(_spacetime_from_dict, data, ground)


# -- trace json -----------------------------------------------------------------


def _lift_row(r: LiftRecord) -> str:
    element = "null" if r.element is None else r.element
    face = "null" if r.face is None else f"[{', '.join(map(str, r.face))}]"
    return (f'{{"vertex": {r.vertex}, "old_time": {_fmt(r.old_time)}, '
            f'"new_time": {_fmt(r.new_time)}, "kind": {_quote(r.kind)}, '
            f'"element": {element}, "face": {face}, "patch": {r.patch}}}')


def write_trace_json(trace: RunTrace) -> str:
    """The trace as JSON, formatted one lift per row.  build_seconds is
    wall clock and is left out, so that the file is byte-deterministic."""
    return (
        f'{{"epsilon": {_fmt(trace.epsilon)}, '
        f'"target_time": {_fmt(trace.target_time)}, '
        f'"tolerance": {_fmt(trace.tolerance)}, '
        f'"strategy": {_quote(trace.strategy)}, "seed": {trace.seed}, '
        f'"initial_times": [{", ".join(map(_fmt, trace.initial_times))}], '
        f'"lifts": [{", ".join(map(_lift_row, trace.lifts))}]}}\n'
    )


_LIFT_KEYS = ("vertex", "old_time", "new_time", "kind", "element", "face",
              "patch")


def _trace_from_dict(data) -> RunTrace:
    """The trace, with every integer field checked to be a JSON integer
    and every real one a JSON number.  Vertex ids (of lifts and faces)
    must index the initial times and patch ids the lifts; whether the
    vertices are those of a given ground mesh is for the verifier."""
    def number(key, value):
        return _floats([value], lambda _: f"$.{key}")[0]

    initial_times = _floats(list(data["initial_times"]),
                            "$.initial_times[{}]".format)
    n_vertices = len(initial_times)
    lifts = data["lifts"]
    col = dict(zip(_LIFT_KEYS, _columns(lifts, _LIFT_KEYS)))
    at = partial(_entry_path, "$.lifts")
    _ints(col["vertex"], at("vertex"), 0, n_vertices)
    _ints(col["patch"], at("patch"), 0, len(lifts))
    # null: a lift bound by the target has no element, one bound in
    # d < 3 no face
    _ints([0 if e is None else e for e in col["element"]], at("element"))
    faces = [() if f is None else f for f in col["face"]]
    ids, path = _flatten(faces, at("face"))
    _ints(ids, path, 0, n_vertices)
    return RunTrace(
        epsilon=number("epsilon", data["epsilon"]),
        target_time=number("target_time", data["target_time"]),
        tolerance=number("tolerance", data["tolerance"]),
        strategy=data["strategy"],
        seed=_ints([data["seed"]], lambda _: "$.seed")[0],
        initial_times=initial_times,
        lifts=list(map(
            LiftRecord, col["vertex"],
            _floats(col["old_time"], at("old_time")),
            _floats(col["new_time"], at("new_time")),
            col["kind"], col["element"],
            [None if f is None else tuple(f) for f in col["face"]],
            col["patch"],
        )),
        build_seconds=number("build_seconds", data.get("build_seconds", 0.0)),
    )


def read_trace_json(text: str) -> RunTrace:
    return _convert(_trace_from_dict, _load_object(text))


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
    if d == 2:
        lines.extend(f"{x:.17g} {y:.17g} {t:.17g}" for x, y, t in mesh.vertices)
    else:
        lines.extend(f"{x:.17g} {t:.17g} 0" for x, t in mesh.vertices)
    n_el = len(mesh.elements)
    per = d + 2
    lines.append(f"CELLS {n_el} {n_el * (per + 1)}")
    cell = str(per) + " %d" * per
    lines.extend(cell % e for e in mesh.elements)
    lines.append(f"CELL_TYPES {n_el}")
    cell_type = "10" if d == 2 else "5"
    lines.extend([cell_type] * n_el)
    lines.append(f"CELL_DATA {n_el}")
    lines.append("SCALARS patch_id int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(str, mesh.element_patch))
    lines.append("SCALARS duration double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(f"{x:.17g}" for x in element_durations(mesh).tolist())
    return "\n".join(lines) + "\n"
