"""File formats: space-time JSON, legacy-VTK export, trace and stats
files.  The ground mesh parsers live beside load in ground_mesh; they are
imported here by name too, so io_formats.parse_triangle and
io_formats.parse_json_mesh still read a ground mesh.

All outputs are ASCII and byte-deterministic for a fixed input; reals are
written with 17 significant digits so doubles round-trip losslessly.  The
space-time JSON writer yields its file in pieces of WRITE_PIECE tokens (a
string per scalar and per separator, with no whitespace between them) and
renders its rows a chunk at a time, so that `pitch` holds neither the
whole text nor whole-mesh columns.  The trace and stats writers format
their members one by one, so each file's member names live in its writer
alone, and keep a space after each "," and ":".

The space-time JSON reader never holds the parsed tree of its file.  It
decodes the top-level object one member at a time, and the patches
READ_CHUNK at a time, and turns each part into int64 column pieces before
it decodes the next: its memory peaks near 3.5x the text length, against
9x for the whole tree.  The checks of ids whose bound is a count of the
whole file (vertices, elements, patches) run once on the assembled
columns, and the first failed check is reported in one fixed order, so
that the member order of the file does not change the message.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from .errors import MeshValidationError, ParseError
from .ground_mesh import (GroundMesh, check_epsilon, parse_json_mesh,
                          parse_triangle)
from .spacetime import (LiftRecord, MeshArrays, MeshStats, RunTrace, SpaceTimeMesh,
                        element_durations, element_patch, patch_block)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- reading parsed JSON ---------------------------------------------------------

# what converting parsed JSON raises on a missing or mistyped field
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


class _Tracked:
    """Stand-in for parsed JSON that records the path of the last field
    read, so that a failed conversion re-run on it can name that field.
    offset is the index of the first item, for a slice of a longer array."""

    def __init__(self, value, path: str, last: list, offset: int = 0):
        self._value, self._path, self._last = value, path, last
        self._offset = offset

    def _child(self, value, path: str):
        self._last[0] = path
        if isinstance(value, (dict, list)):
            return _Tracked(value, path, self._last)
        return value

    def __getitem__(self, key):
        if not isinstance(self._value, list):
            path = f"{self._path}.{key}"
        elif type(key) is int:
            path = f"{self._path}[{self._offset + key}]"
        else:
            path = f"{self._path}[{key}]"
        self._last[0] = path
        return self._child(self._value[key], path)

    def __iter__(self):
        for i, item in enumerate(self._value):
            yield self._child(item, f"{self._path}[{self._offset + i}]")

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


def _convert(convert, data, *args, path: str = "$", offset: int = 0):
    """convert(data, *args); a missing or malformed field becomes a
    ParseError naming its JSON path, found by re-running the conversion on
    a path-recording stand-in (so a good file never pays for it).  data is
    the value at path, and offset the index of its first item if it is a
    slice of a longer array."""
    try:
        return convert(data, *args)
    except (ParseError, MeshValidationError):
        raise
    except _MALFORMED as exc:
        error = exc
    last = [path]
    if isinstance(data, (dict, list)):
        data = _Tracked(data, path, last, offset)
    try:
        convert(data, *args)
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


def _int_error(path: str, x, lo, hi) -> ParseError:
    what = (f"{x} is out of range [{lo}, {hi})" if type(x) is int
            else f"{x!r} is not an integer")
    return ParseError(f"{path}: {what}")


def _bad_int(values, path_of, lo, hi):
    """Raise ParseError naming the first of values that is not a JSON
    integer in [lo, hi)."""
    k, x = _first_bad(values, lambda x: type(x) is int and lo <= x < hi)
    raise _int_error(path_of(k), x, lo, hi)


def _choices(values, allowed: frozenset, path_of):
    """values, each checked to be one of the strings in allowed."""
    if not (set(map(type, values)) <= {str} and set(values) <= allowed):
        k, x = _first_bad(values, lambda x: type(x) is str and x in allowed)
        raise ParseError(f"{path_of(k)}: {x!r} is not one of "
                         f"{', '.join(map(repr, sorted(allowed)))}")
    return values


def _is_int64(x) -> bool:
    return type(x) is int and -2**63 <= x < 2**63


class _Ids:
    """A column of JSON integers read a piece at a time.  Its range check
    waits for array(), since its bound may be a count of the whole file;
    array() then names the first entry that is not an integer in range,
    as _ints does for a list."""

    def __init__(self, values=()):
        self.pieces = [np.zeros(0, dtype=np.int64)]
        self.n = 0
        # (position, value) of the first entry that is not an int64
        # integer; entries after it are not kept
        self.bad = None
        self.extend(values)

    def extend(self, values) -> None:
        if self.bad is not None:
            return
        if set(map(type, values)) <= {int}:
            try:
                self.pieces.append(np.array(values, dtype=np.int64))
                self.n += len(values)
                return
            except OverflowError:
                pass
        k, x = _first_bad(values, _is_int64)
        self.pieces.append(np.array(values[:k], dtype=np.int64))
        self.bad = (self.n + k, x)

    def values(self) -> np.ndarray:
        """The entries read, unchecked (all of them, if none is bad)."""
        return np.concatenate(self.pieces)

    def array(self, lo: int, hi: int, path_of) -> np.ndarray:
        ids = self.values()
        out = np.flatnonzero((ids < lo) | (ids >= hi))
        if len(out):
            k = int(out[0])
            raise _int_error(path_of(k), int(ids[k]), lo, hi)
        if self.bad is not None:
            k, x = self.bad
            raise _int_error(path_of(k), x, lo, hi)
        return ids


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


def _nested_path(sizes: np.ndarray, row_path, j: int) -> str:
    """Path of entry j of rows of the given sizes laid end to end."""
    ends = np.cumsum(sizes)
    k = int(np.searchsorted(ends, j, side="right"))
    return f"{row_path(k)}[{j - int(ends[k] - sizes[k])}]"


def _columns(rows, keys) -> list:
    """One column per key over the objects in rows (each row read once)."""
    if not rows:
        return [()] * len(keys)
    return list(zip(*map(itemgetter(*keys), rows)))


def _entry_path(array: str, key: str, offset: int = 0):
    return lambda k: f"{array}[{offset + k}].{key}"


# -- decoding JSON a member at a time -------------------------------------------

_decode = json.JSONDecoder().raw_decode
_space = json.decoder.WHITESPACE.match


def _scan_object(text: str, member) -> None:
    """Decode the JSON object in text one member at a time: member(name,
    pos) decodes the value at pos and returns where it ends.  A repeated
    name is a ParseError; malformed JSON raises the JSONDecodeError, at
    the same position, that json.loads raises."""
    pos = _space(text, 0).end()
    if not text.startswith("{", pos):
        json.loads(text)  # raises, unless the text is JSON but no object
        raise ParseError("$: not an object")
    names = set()
    pos = _space(text, pos + 1).end()
    if not text.startswith("}", pos):
        while True:
            if not text.startswith('"', pos):
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes",
                    text, pos)
            name, pos = json.decoder.scanstring(text, pos + 1)
            if name in names:
                raise ParseError(f"$.{name}: repeated member")
            names.add(name)
            pos = _space(text, pos).end()
            if not text.startswith(":", pos):
                raise json.JSONDecodeError(
                    "Expecting ':' delimiter", text, pos)
            pos = _space(text, member(name, _space(text, pos + 1).end())).end()
            if text.startswith("}", pos):
                break
            if not text.startswith(",", pos):
                raise json.JSONDecodeError(
                    "Expecting ',' delimiter", text, pos)
            pos = _space(text, pos + 1).end()
    pos = _space(text, pos + 1).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)


def _scan_array(text: str, pos: int, size: int, take) -> int:
    """Decode the JSON array at pos size items at a time, passing each
    list of items to take (the last may be shorter); returns where the
    array ends.  Malformed JSON raises as in _scan_object."""
    pos = _space(text, pos + 1).end()
    chunk = []
    if not text.startswith("]", pos):
        while True:
            item, pos = _decode(text, pos)
            chunk.append(item)
            if len(chunk) == size:
                take(chunk)
                chunk = []
            pos = _space(text, pos).end()
            if text.startswith("]", pos):
                break
            if not text.startswith(",", pos):
                raise json.JSONDecodeError(
                    "Expecting ',' delimiter", text, pos)
            pos = _space(text, pos + 1).end()
    if chunk:
        take(chunk)
    return pos + 1


# -- space-time mesh json ------------------------------------------------------


# tokens the space-time JSON writer holds before it joins them into one piece
# of text (about 0.6 MB) and yields it; patches it renders at a time (and 16
# times as many rows of other kinds, which have a thirtieth of the tokens)
WRITE_PIECE = 1 << 18
WRITE_CHUNK = 16
_INFLOW, _OUTFLOW = (["]", ",", f'"{k}"', ":", "["] for k in ("inflow", "outflow"))


def _fill(template: list, values, write=repr) -> list[str]:
    """Rows of template, its None entries taking the values row after row."""
    values, slots = list(map(write, values)), template.count(None)
    tokens = template * (len(values) // slots)
    for j, i in enumerate(i for i, t in enumerate(template) if t is None):
        tokens[i::len(template)] = values[j::slots]
    return tokens


def _rows(template: list, chunks, write=repr):
    """(tokens, row ends) of each chunk of flat row values; repr writes ints."""
    size = len(template)
    for values in chunks:
        tokens = _fill(template, values, write)
        yield tokens, range(size, len(tokens) + 1, size)


def _chunks(values, width: int = 1):
    """The flat values of 16 * WRITE_CHUNK rows of width values, a list at a
    time: an array's slices, or the runs of an iterable."""
    size = 16 * WRITE_CHUNK * width
    if hasattr(values, "tolist"):
        return (values[a:a + size].tolist() for a in range(0, len(values), size))
    values = iter(values)
    return iter(lambda: list(islice(values, size)), [])


def _vertex_chunks(mesh: SpaceTimeMesh):
    """The vertex rows, flat, 16 * WRITE_CHUNK rows at a time (rule 1)."""
    size = 16 * WRITE_CHUNK
    return (mesh.vertex_rows(a, a + size).ravel().tolist()
            for a in range(0, len(mesh.times), size))


def _patch_chunks(mesh: SpaceTimeMesh, facet: list):
    """(tokens, row ends) of the patches, one patch_block at a time."""
    keys = ("id", "vertex", "base", "apex")
    head = [",", "{", *chain.from_iterable((f'"{k}"', ":", None, ",") for k in keys),
            '"elements"', ":", "["]
    h, w, first = len(head), len(facet), 0
    for start in range(0, len(mesh.patch_vertex), WRITE_CHUNK):
        c = patch_block(mesh, start, start + WRITE_CHUNK, first)
        heads = _fill(head, np.column_stack(
            [c["patch_" + k] for k in keys]).ravel().tolist())
        facets = _fill(facet, np.column_stack([c["facet_" + k] for k in (
            "element", "vertices", "producer")]).ravel().tolist())
        ids = _fill([",", None], range(first, first + len(c["elements"])))
        tokens, ends, a = [], [], 0
        for p, z in enumerate(np.cumsum(c["patch_sizes"]).tolist()):
            # inflow facets are facet rows 2a to a + z - 1, outflow ones to 2z - 1
            tokens += [*heads[h * p:h * p + h], *ids[2 * a + 1:2 * z], *_INFLOW,
                       *facets[2 * w * a + 1:w * (a + z)], *_OUTFLOW,
                       *facets[w * (a + z) + 1:2 * w * z], "]", "}"]
            ends.append(len(tokens))
            a = z
        first += a
        yield tokens, ends


def spacetime_json_pieces(mesh: SpaceTimeMesh):
    """The space-time JSON, a piece of text at a time.

    The text is one token per scalar and per separator, and a piece is yielded
    at a row end once WRITE_PIECE tokens are held.  Rows are made a chunk at a
    time by filling a template (the patches' from patch_block), so one chunk
    of columns and tokens is held beside the piece, never whole-mesh columns.
    Rows stay tokens, not a string each: a leaner writer would take pitch's
    memory peak on kuhn_tet below the benchmark's lean-spawn check (ROADMAP)."""
    d, n = mesh.ground.dim, mesh.ground.n_vertices
    vertex = [",", "[", *[None, ","] * d, None, "]"]  # d + 1 values
    element = [",", "[", *[None, ","] * (d + 1), None, "]"]
    facet = [",", "[", None, ",", *vertex[1:], ",", None, "]"]
    out = ['{"format":"tentpitch-stmesh","ground_dim":', str(d)]
    for name, chunks in (
            ("vertices", _rows(vertex, _vertex_chunks(mesh), "{:.17g}".format)),
            ("vertex_ground", _rows([",", None], _chunks(chain(range(n),
                                                                mesh.patch_vertex)))),
            ("elements", _rows(element, _chunks(mesh.elements, d + 2))),
            ("element_patch", _rows([",", None], _chunks(element_patch(mesh)))),
            ("initial_facets", _rows(facet, _chunks(chain.from_iterable(
                (e, *v, p) for e, v, p in mesh.initial_facets), d + 3))),
            ("frontier", _rows(facet, _chunks(chain.from_iterable(
                (e, *v, p) for e, v, p in mesh.frontier), d + 3))),
            ("patches", _patch_chunks(mesh, facet))):
        out.append(f',"{name}":[')
        at = 1  # the section's first row has no separator
        for tokens, ends in chunks:
            while (i := bisect_left(ends, WRITE_PIECE - len(out) + at)) < len(ends):
                out += tokens[at:ends[i]]
                yield "".join(out)
                out.clear()
                at = ends[i]
            out += tokens[at:]
            at = 0
        out.append("]")
    out.append("}\n")
    yield "".join(out)


def write_spacetime_json(mesh: SpaceTimeMesh) -> str:
    return "".join(spacetime_json_pieces(mesh))


# patches decoded and converted at a time: bounds the reader's memory
READ_CHUNK = 512

_PATCH_KEYS = ("id", "vertex", "base", "apex", "elements", "inflow", "outflow")


def _patch_group(g: int) -> str:
    """Path of facet group g of the patches: each one's inflow, then its
    outflow."""
    return f"$.patches[{g // 2}].{('inflow', 'outflow')[g % 2]}"


def _facet_columns(groups, group_path, d: int) -> dict:
    """The columns of the facet records [ground element, vertex ids,
    producer] in groups, after the checks of their shapes."""
    records, path = _flatten(groups, group_path)
    _arrays(records, path, 3)
    vertices, _ = _flatten(list(map(itemgetter(1), records)),
                           lambda k: f"{path(k)}[1]", d + 1)
    return {"facet_element": list(map(itemgetter(0), records)),
            "facet_vertices": vertices,
            "facet_producer": list(map(itemgetter(2), records)),
            "facet_groups": list(map(len, groups))}


def _patch_columns(chunk, start: int, d: int) -> dict:
    """The columns of patches start, start + 1, ... in chunk, after the
    checks of their shapes."""
    col = dict(zip(_PATCH_KEYS, _columns(chunk, _PATCH_KEYS)))
    elements, _ = _flatten(col["elements"],
                           _entry_path("$.patches", "elements", start))
    groups = list(chain.from_iterable(zip(col["inflow"], col["outflow"])))
    return {"patch_id": col["id"], "patch_vertex": col["vertex"],
            "patch_base": col["base"], "patch_apex": col["apex"],
            "patch_elements": elements,
            "patch_sizes": list(map(len, col["elements"])),
            **_facet_columns(groups, lambda g: _patch_group(2 * start + g), d)}


class _Columns(dict):
    """Int columns (name: _Ids) of a member, or of all the patches, read
    a part at a time.  count is the number of patches read; after a chunk
    of patches fails its checks, error holds its ParseError and the rest
    are only counted."""

    def __init__(self, columns: dict):
        super().__init__((name, _Ids(v)) for name, v in columns.items())
        self.count = 0
        self.error = None

    def add_patches(self, chunk, d: int) -> None:
        start = self.count
        self.count += len(chunk)
        if self.error is not None:
            return
        try:
            columns = _convert(_patch_columns, chunk, start, d,
                               path="$.patches", offset=start)
        except ParseError as exc:
            self.error = exc
            return
        for name, values in columns.items():
            self[name].extend(values)


def _no_patches(d: int) -> _Columns:
    return _Columns(_patch_columns([], 0, d))


def _member_patches(value, d: int) -> _Columns:
    """Patches given as a JSON value other than an array: len() of the
    value is the patch count the range checks use, and the value is
    converted as one chunk."""
    patches = _no_patches(d)
    patches.add_patches(value, d)
    return patches


# how each top-level member is converted on its own, as soon as it is
# decoded (d is the ground dimension); other members are ignored
_MEMBERS = {
    "format": lambda value, d: value,
    "ground_dim": lambda value, d: value,
    "vertices": lambda rows, d: _float_array(*_flatten(
        rows, "$.vertices[{}]".format, d + 1)).reshape(-1, d + 1),
    "vertex_ground": lambda values, d: _Ids(list(values)),
    "elements": lambda rows, d: _Ids(_flatten(
        rows, "$.elements[{}]".format, d + 2)[0]),
    "element_patch": lambda values, d: _Ids(list(values)),
    "initial_facets": lambda rows, d: _Columns(_facet_columns(
        [rows], lambda _: "$.initial_facets", d)),
    "frontier": lambda rows, d: _Columns(_facet_columns(
        [rows], lambda _: "$.frontier", d)),
    "patches": _member_patches,
}


def _mesh_columns(parts: dict, ground: GroundMesh) -> MeshArrays:
    """The mesh's columns from its converted members, after the checks of
    every id against its range: ground vertices and elements, space-time
    vertices, elements and patches, and -1 or a patch as a producer.

    The first failed check is reported in one fixed order, whatever the
    order of the members in the file: format, ground_dim, vertices,
    vertex_ground, elements, patches, element_patch, the patches' fields,
    then the initial, frontier and patch facets."""
    def part(name: str):
        if name not in parts:
            raise ParseError(f"$.{name}: missing")
        if isinstance(parts[name], ParseError):
            raise parts[name]
        return parts[name]

    if parts.get("format") != "tentpitch-stmesh":
        raise ParseError("$.format: not a tentpitch space-time mesh file")
    (ground_dim,) = _ints([part("ground_dim")], lambda _: "$.ground_dim")
    if ground_dim != ground.dim:
        raise MeshValidationError(
            f"space-time mesh has ground dimension {ground_dim}, "
            f"ground mesh has {ground.dim}"
        )
    d = ground.dim
    vertices = part("vertices")
    n_vertices = len(vertices)
    vertex_ground = part("vertex_ground").array(
        0, ground.n_vertices, "$.vertex_ground[{}]".format)
    elements = part("elements").array(
        0, n_vertices, lambda j: f"$.elements[{j // (d + 2)}][{j % (d + 2)}]"
    ).reshape(-1, d + 2)
    patches = part("patches")
    n_patches = patches.count
    element_patch = part("element_patch").array(
        0, n_patches, "$.element_patch[{}]".format)
    if patches.error is not None:
        raise patches.error
    at = partial(_entry_path, "$.patches")
    patch_id = patches["patch_id"].array(0, n_patches, at("id"))
    patch_vertex = patches["patch_vertex"].array(
        0, ground.n_vertices, at("vertex"))
    patch_base = patches["patch_base"].array(0, n_vertices, at("base"))
    patch_apex = patches["patch_apex"].array(0, n_vertices, at("apex"))
    patch_sizes = patches["patch_sizes"].values()
    patch_elements = patches["patch_elements"].array(
        0, len(elements),
        lambda j: _nested_path(patch_sizes, at("elements"), j))

    facets = []
    for f, group_path in (
            (part("initial_facets"), lambda _: "$.initial_facets"),
            (part("frontier"), lambda _: "$.frontier"),
            (patches, _patch_group)):
        groups = f["facet_groups"].values()
        record = partial(_nested_path, groups, group_path)
        facets.append((
            f["facet_element"].array(
                0, ground.n_elements, lambda r: f"{record(r)}[0]"),
            f["facet_vertices"].array(
                0, n_vertices,
                lambda j: f"{record(j // (d + 1))}[1][{j % (d + 1)}]"),
            f["facet_producer"].array(
                -1, n_patches, lambda r: f"{record(r)}[2]"),
            groups))
    facet_element, facet_vertices, facet_producer, facet_groups = map(
        np.concatenate, zip(*facets))
    return MeshArrays(
        ground, vertices, vertex_ground, elements, element_patch,
        patch_id, patch_vertex, patch_base, patch_apex, patch_elements,
        patch_sizes, facet_element, facet_vertices.reshape(-1, d + 1),
        facet_producer, facet_groups)


def read_spacetime_json(text: str, ground: GroundMesh) -> MeshArrays:
    """The mesh's columns, each id checked as _mesh_columns says.

    The file is decoded one top-level member at a time, in any order, and
    its patches READ_CHUNK at a time; each part is converted to int64
    pieces and dropped before the next is decoded, so the parsed tree of
    the whole file is never held."""
    d = ground.dim
    parts = {}

    def member(name: str, pos: int) -> int:
        if name == "patches" and text.startswith("[", pos):
            parts[name] = patches = _no_patches(d)
            return _scan_array(text, pos, READ_CHUNK,
                               partial(patches.add_patches, d=d))
        value, end = _decode(text, pos)
        if name in _MEMBERS:
            try:
                parts[name] = _convert(_MEMBERS[name], value, d,
                                       path=f"$.{name}")
            except ParseError as exc:
                parts[name] = exc
        return end

    try:
        _scan_object(text, member)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return _mesh_columns(parts, ground)


# -- trace json -----------------------------------------------------------------


def _lift_row(r: LiftRecord) -> str:
    element = "null" if r.element is None else r.element
    face = "null" if r.face is None else f"[{', '.join(map(str, r.face))}]"
    return (f'{{"vertex": {r.vertex}, "old_time": {_fmt(r.old_time)}, '
            f'"new_time": {_fmt(r.new_time)}, "kind": {_quote(r.kind)}, '
            f'"element": {element}, "face": {face}, "patch": {r.patch}}}')


def write_trace_json(trace: RunTrace) -> str:
    """The trace as JSON, formatted one lift per row."""
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
# what pitch writes as a lift's binding kind and as the strategy
_KINDS = frozenset({"cone", "progress", "target"})
_STRATEGIES = frozenset({"greedy", "mis"})


def _trace_from_dict(data) -> RunTrace:
    """The trace, with every integer field checked to be a JSON integer
    and every real one a JSON number, and the kinds, the strategy and the
    seed to be ones that pitch writes.  Vertex ids (of lifts and faces)
    must index the initial times, patch ids the lifts, and a face have 3
    vertices; whether they are those of a given ground mesh, and the
    element one of the vertex's, is for the verifier."""
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
    _choices(col["kind"], _KINDS, at("kind"))
    # null: a lift bound by the target has no element, one bound in
    # d < 3 or by a whole element no face (a null face passes as 0, 0, 0)
    _ints([0 if e is None else e for e in col["element"]], at("element"))
    faces = [(0, 0, 0) if f is None else f for f in col["face"]]
    ids, path = _flatten(faces, at("face"), 3)
    _ints(ids, path, 0, n_vertices)
    epsilon = number("epsilon", data["epsilon"])
    try:
        check_epsilon(epsilon)
    except ValueError as exc:
        raise ParseError(f"$.epsilon: {exc}") from None
    trace = RunTrace(
        epsilon=epsilon,
        target_time=number("target_time", data["target_time"]),
        tolerance=number("tolerance", data["tolerance"]),
        strategy=_choices([data["strategy"]], _STRATEGIES,
                          lambda _: "$.strategy")[0],
        seed=_ints([data["seed"]], lambda _: "$.seed", 0)[0],
        initial_times=initial_times,
        lifts=list(map(
            LiftRecord, col["vertex"],
            _floats(col["old_time"], at("old_time")),
            _floats(col["new_time"], at("new_time")),
            col["kind"], col["element"],
            [None if f is None else tuple(f) for f in col["face"]],
            col["patch"],
        )),
    )
    if trace.strategy == "greedy" and trace.seed != 0:
        raise ParseError(f"$.seed: a greedy run has seed 0, not {trace.seed}")
    return trace


def read_trace_json(text: str) -> RunTrace:
    return _convert(_trace_from_dict, _load_object(text))


# -- stats json -----------------------------------------------------------------


def write_stats_json(st: MeshStats) -> str:
    """The run statistics as JSON: the MeshStats fields in order, with
    build_seconds as "seconds" and the histogram sorted by patch size."""
    histogram = ", ".join(f'"{k}": {v}' for k, v in
                          sorted(st.patch_size_histogram.items()))
    return (
        f'{{"patches": {st.patches}, "elements": {st.elements}, '
        f'"vertices": {st.vertices}, "duration_min": {_fmt(st.duration_min)}, '
        f'"duration_max": {_fmt(st.duration_max)}, '
        f'"duration_mean": {_fmt(st.duration_mean)}, '
        f'"duration_ratio": {_fmt(st.duration_ratio)}, '
        f'"patch_size_histogram": {{{histogram}}}, "seconds": {_fmt(st.build_seconds)}, '
        f'"elements_per_second": {_fmt(st.elements_per_second)}}}\n')


# -- legacy VTK export -----------------------------------------------------------


def check_vtk_dim(dim: int) -> None:
    """Raise ValueError if space-time elements over a ground mesh of
    dimension dim cannot be exported."""
    if dim == 3:
        raise ValueError("cannot export 4-dimensional space-time elements to VTK")


def vtk_pieces(mesh: SpaceTimeMesh):
    """Legacy-VTK ASCII unstructured grid of the space-time mesh, a section
    at a time: each is joined, a chunk of rows at a time, when its turn comes.

    d = 2 ground meshes export as tetrahedra (x, y, t); d = 1 as triangles
    (x, t, 0).  Cell data carries the owning patch id and the element's
    time extent.  4-dimensional elements (d = 3) cannot be exported.
    """
    d = mesh.ground.dim
    check_vtk_dim(d)
    n_el = mesh.n_elements
    per = d + 2
    yield ("# vtk DataFile Version 2.0\nspace-time mesh\nASCII\n"
           f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(mesh.times)} double\n")
    yield _lines("%.17g %.17g %.17g\n" if d == 2 else "%.17g %.17g 0\n",
                 _vertex_chunks(mesh))
    yield f"CELLS {n_el} {n_el * (per + 1)}\n"
    yield _lines(str(per) + " %d" * per + "\n", _chunks(mesh.elements, per))
    yield f"CELL_TYPES {n_el}\n" + ("10\n" if d == 2 else "5\n") * n_el
    yield f"CELL_DATA {n_el}\nSCALARS patch_id int 1\nLOOKUP_TABLE default\n"
    yield _lines("%d\n", _chunks(element_patch(mesh)))
    yield "SCALARS duration double 1\nLOOKUP_TABLE default\n"
    yield _lines("%.17g\n", _chunks(element_durations(mesh)))


def _lines(row: str, chunks) -> str:
    """row % values for the rows of every chunk of flat values, as one string."""
    per = row.count("%")
    return "".join((row * (len(c) // per)) % tuple(c) for c in chunks)


def write_vtk(mesh: SpaceTimeMesh) -> str:
    return "".join(vtk_pieces(mesh))
